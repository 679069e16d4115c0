(* Ladder-bias cascode amplifier: a two-transistor NMOS cascode gain
   stage whose cascode gate is biased from a long resistor-ladder
   reference chain, as in bias-distribution networks of large analog
   front ends.

   The point of this benchmark is its variable structure, not its gain:
   the ladder contributes ~36 relaxed-dc node variables that no device
   terminal touches, so the vast majority of node-voltage moves leave
   every operating point — and therefore every AWE model — untouched.
   It is the stress test (and the showcase) for the move-scoped
   incremental evaluator: see docs/PERFORMANCE.md, the test_incr
   "work per decision" gates and perfbench's bias-synth workload. *)

let name = "ladder-bias-amp"

(* Ladder interior nodes lad1..lad{n-1}; the cascode gate taps the chain
   at [tap] resistors up from vss. *)
let ladder_rungs = 37
let ladder_tap = 19

let ladder_lines () =
  let node k =
    if k = 0 then "vss"
    else if k = ladder_rungs then "vdd"
    else if k = ladder_tap then "vcas"
    else Printf.sprintf "lad%d" k
  in
  String.concat "\n"
    (List.init ladder_rungs (fun i ->
         Printf.sprintf "rlad%d %s %s 'rlad'" i (node (i + 1)) (node i)))

let source =
  Printf.sprintf
    {|.title ladder-biased cascode amplifier
.process p1u2
.param vddval=5
.param vcmval=1.2
.param cl=1p
.param rlad=10k

.subckt amp in out vdd vss
m1 mid in vss vss nmos w='w1' l='l1'
m2 out vcas mid vss nmos w='w2' l='l2'
rl vdd out 'rl'
%s
.ends

.var w1 min=2u max=400u steps=120
.var l1 min=1.2u max=20u steps=60
.var w2 min=2u max=400u steps=120
.var l2 min=1.2u max=20u steps=60
.var rl min=2k max=200k grid=log

.jig main
xamp in out nvdd nvss amp
vdd nvdd 0 'vddval'
vss nvss 0 0
vin in 0 'vcmval' ac 1
cl1 out 0 'cl'
.pz tf v(out) vin
.endjig

.bias
xamp in out nvdd nvss amp
vdd nvdd 0 'vddval'
vss nvss 0 0
vin in 0 'vcmval'
cl1 out 0 'cl'
.endbias

.obj adm 'db(dc_gain(tf))' good=30 bad=5
.obj area 'area()' good=200 bad=20000
.spec ugf 'ugf(tf)' good=10meg bad=1meg
.spec vov 'xamp.m1.vgst' good=0.15 bad=0.02
.spec pwr 'power()' good=2m bad=20m
|}
    (ladder_lines ())

let paper_table2 = []
