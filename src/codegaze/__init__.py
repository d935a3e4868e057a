"""Behavioral cloning of programmer visual attention over source code tokens."""

from .autodiff import AdamState, Var, adam_init, adam_step, backward, grad_check
from .features import FeatureSpec, Vocab, build_vocab, featurize
from .gaze import (Fixation, LayoutSpec, Trajectory, augment, build_trajectory,
                   map_fixation)
from .lexer import LabelKind, Snippet, TaskLabel, Token, TokenKind, tokenize
from .policy import BCConfig, bc_loss, encode, forward_teacher, init_params, rollout
from .synth import GeneratorConfig, bug_seeker, gen_snippet, keyword_skimmer, linear_reader
from .training import Checkpoint, Metrics, evaluate, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "AdamState", "Var", "adam_init", "adam_step", "backward", "grad_check",
    "FeatureSpec", "Vocab", "build_vocab", "featurize",
    "Fixation", "LayoutSpec", "Trajectory", "augment", "build_trajectory",
    "map_fixation",
    "LabelKind", "Snippet", "TaskLabel", "Token", "TokenKind", "tokenize",
    "BCConfig", "bc_loss", "encode", "forward_teacher", "init_params", "rollout",
    "GeneratorConfig", "bug_seeker", "gen_snippet", "keyword_skimmer",
    "linear_reader",
    "Checkpoint", "Metrics", "evaluate", "load_checkpoint", "save_checkpoint",
    "train",
]
