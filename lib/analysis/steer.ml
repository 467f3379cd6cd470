(* Engine steering: which engine the portfolio's k = 1 rung runs.

   The BDD engine is the paper's method and wins on small state spaces;
   its failure mode is variable-order blowup, which tracks the number of
   state variables (product latches) and the combinational depth far
   better than gate count.  So: BDD below the latch/level thresholds, SAT
   above them.  Either choice reaches the same k = 1 fixed point (the BDD
   engine hands its partition to the SAT sweep when its node budget runs
   out), so the thresholds only pick the cheaper engine.

   Thresholds calibrated on the built-in suite: the largest BDD-friendly
   product there has 60 state variables (bus), while tx — 128 state
   variables — drives the BDD engine past its 2M-node budget before it
   hands off (retime+opt seeds 2 and 3).  Levels guard the same failure
   through combinational depth. *)

let bdd_latch_limit = 96
let bdd_level_limit = 80

let bdd_first ~product_latches ~levels =
  product_latches <= bdd_latch_limit && levels <= bdd_level_limit
