#!/usr/bin/env python3
"""
Cloning a scripted reading strategy end to end
==============================================

Generates a small synthetic corpus, records demonstrations from the
keyword-skimming expert, trains the pointer policy by behavioral cloning,
and rolls the trained policy out on a held-out snippet. Takes about two
seconds on one core.
"""

import numpy as np

from codegaze import synth, training
from codegaze.features import FeatureSpec
from codegaze.policy import BCConfig

gen = synth.GeneratorConfig(seed=7, n_snippets=60, n_classes=3, lines_min=2, lines_max=3)
snippets = {synth.snippet_id(i): synth.gen_snippet(gen, i) for i in range(gen.n_snippets)}
demos = {sid: synth.keyword_skimmer(sn, gen.keyword_set()) for sid, sn in snippets.items()}

# Hash-based 80/20 split so membership depends only on the snippet id.
train_ids, held_ids = training.split_by_id(sorted(snippets))
print(f"corpus: {len(train_ids)} train / {len(held_ids)} held-out snippets")

cfg = BCConfig(w_att=1.0, w_aux=0.0, epochs=30, seed=0)
ckpt = training.train([demos[sid] for sid in train_ids],
                      {sid: snippets[sid] for sid in train_ids},
                      cfg, FeatureSpec(mode="onehot_pos"))
first, last = ckpt.epoch_log[0], ckpt.epoch_log[-1]
print(f"train loss {first['mean_loss']:.3f} -> {last['mean_loss']:.3f} "
      f"over {cfg.epochs} epochs")

held = training.evaluate(ckpt, [demos[sid] for sid in held_ids], snippets)
chance = float(np.mean([1.0 / (len(snippets[sid].tokens) + 1) for sid in held_ids]))
print(f"held-out per-step action accuracy {held.action_accuracy:.3f} "
      f"(chance {chance:.3f})")

# Free-running rollout: the policy picks its own previous step each time
# and must also decide when to stop.
sid = held_ids[0]
steps, _ = training.predict(ckpt, snippets[sid], max_steps=32)
print(f"\nrollout on held-out {sid}:")
print("  expert :", demos[sid].steps,
      [snippets[sid].tokens[s].text for s in demos[sid].steps])
print("  policy :", steps, [snippets[sid].tokens[s].text for s in steps])
