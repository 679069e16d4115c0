(* ASTRX's static dependency analysis: which parts of the compiled cost
   function can a change to one optimization variable actually reach?

   The graph is built once at compile time from the same structures the
   evaluator walks (tree-link assignment, bias elements, jig circuits,
   spec expressions), so membership is a property of the problem, not of
   any particular design point. Everything is an over-approximation:
   a reference that cannot be resolved statically (unknown name, dotted
   path with no matching element) makes the consumer depend on every
   variable, never on none. *)

module S = Set.Make (Int)

(* Spec functions that measure a transfer function of a jig (their first
   argument is the tf name), vs. functions that read the whole bias
   solution and are re-measured on every evaluation. *)
let known_tf_functions =
  [
    "dc_gain";
    "ugf";
    "phase_margin";
    "pm";
    "gain_at";
    "bw3db";
    "pole1";
    "gain_margin_db";
    "slew_rate";
    "settle";
    "noise_out_uv";
    "psrr_db";
  ]

(* Subset of the above measured by transient simulation — they need a
   .tran card on the owning jig (enforced at compile time). *)
let transient_functions = [ "slew_rate"; "settle" ]

let spec_only_functions = [ "area"; "power"; "supply_current" ]

let analyze ~(params : (string * Netlist.Expr.t) list) ~(state0 : State.t)
    ~(bias : Netlist.Circuit.t) ~(tl : Treelink.t) ~(jigs : Problem.jig list)
    ~(specs : Problem.spec list) : Problem.depgraph =
  let n_vars = State.n_vars state0 in
  let var_of_name = Hashtbl.create 16 in
  let n_user = ref 0 in
  Array.iteri
    (fun i info ->
      match info with
      | State.User { name; _ } ->
          Hashtbl.replace var_of_name name i;
          incr n_user
      | State.Node_voltage _ -> ())
    state0.State.info;
  let node_var_base = !n_user in
  (* Variable set an expression reads: [true] means "could be anything" —
     an unresolvable reference taints the whole expression. Parameters are
     chased recursively (cycle-guarded like the evaluator). *)
  let rec expr_vars seen (e : Netlist.Expr.t) =
    match e with
    | Netlist.Expr.Const _ -> (false, S.empty)
    | Netlist.Expr.Ref [ name ] -> ref_vars seen name
    | Netlist.Expr.Ref _ -> (true, S.empty)
    | Netlist.Expr.Neg a -> expr_vars seen a
    | Netlist.Expr.Add (a, b)
    | Netlist.Expr.Sub (a, b)
    | Netlist.Expr.Mul (a, b)
    | Netlist.Expr.Div (a, b)
    | Netlist.Expr.Pow (a, b) ->
        merge (expr_vars seen a) (expr_vars seen b)
    | Netlist.Expr.Call (_, args) ->
        List.fold_left (fun acc a -> merge acc (expr_vars seen a)) (false, S.empty) args
  and ref_vars seen name =
    match Hashtbl.find_opt var_of_name name with
    | Some i -> (false, S.singleton i)
    | None -> begin
        match List.assoc_opt name params with
        | Some e -> if List.mem name seen then (false, S.empty) else expr_vars (name :: seen) e
        | None -> (true, S.empty)
      end
  and merge (a_all, a_vars) (b_all, b_vars) = (a_all || b_all, S.union a_vars b_vars) in
  (* var -> nodes: through the tree-link assignment. A Free node reads its
     own variable plus whatever its source-chain offset reads; a Fixed node
     reads whatever its voltage expression reads. *)
  let n_nodes = Array.length tl.Treelink.of_node in
  let var_nodes = Array.make n_vars S.empty in
  let add_var_dep dest target (all, vars) =
    if all then
      for v = 0 to n_vars - 1 do
        dest.(v) <- S.add target dest.(v)
      done
    else S.iter (fun v -> dest.(v) <- S.add target dest.(v)) vars
  in
  Array.iteri
    (fun node a ->
      match a with
      | Treelink.Fixed e -> add_var_dep var_nodes node (expr_vars [] e)
      | Treelink.Free (k, off) ->
          add_var_dep var_nodes node (false, S.singleton (node_var_base + k));
          add_var_dep var_nodes node (expr_vars [] off))
    tl.Treelink.of_node;
  (* node -> elements (terminals the KCL sweep reads) and var -> elements
     (value expressions the sweep evaluates). Capacitors and voltage
     sources contribute no flow, so they have no edges of their own; a
     source's dc value reaches the cost only through node voltages, which
     the assignment expressions above already cover. *)
  let n_elems = Array.length bias.Netlist.Circuit.elements in
  let node_elems = Array.make n_nodes S.empty in
  let var_elems = Array.make n_vars S.empty in
  let elem_of_name = Hashtbl.create 16 in
  Array.iteri
    (fun i (e : Netlist.Circuit.element) ->
      Hashtbl.replace elem_of_name (Netlist.Circuit.element_name e) i;
      let touch nodes = List.iter (fun n -> node_elems.(n) <- S.add i node_elems.(n)) nodes in
      let reads exprs =
        List.iter (fun ex -> add_var_dep var_elems i (expr_vars [] ex)) exprs
      in
      match e with
      | Netlist.Circuit.Resistor { n1; n2; value; _ } ->
          touch [ n1; n2 ];
          reads [ value ]
      | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Vsource _ -> ()
      | Netlist.Circuit.Isource { np; nn; dc; _ } ->
          touch [ np; nn ];
          reads [ dc ]
      | Netlist.Circuit.Vccs { np; nn; ncp; ncn; gm; _ } ->
          touch [ np; nn; ncp; ncn ];
          reads [ gm ]
      | Netlist.Circuit.Mosfet { d; g; s; b; w; l; mult; _ } ->
          touch [ d; g; s; b ];
          reads [ w; l; mult ]
      | Netlist.Circuit.Bjt { c; b; e = ne; area; _ } ->
          touch [ c; b; ne ];
          reads [ area ]
      | Netlist.Circuit.Inductor _ | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Cccs _
      | Netlist.Circuit.Ccvs _ ->
          (* rejected for bias networks at compile time *)
          ())
    bias.Netlist.Circuit.elements;
  (* element -> jigs: a jig depends on the operating point of every bias
     device that has a counterpart (same name) in the jig circuit.
     var -> jigs: the value expressions the jig's linearization evaluates
     (R/C/L values, controlled-source gains) — kept alongside so a dirty
     variable can be re-checked against the actual expression values. *)
  let n_jigs = List.length jigs in
  let elem_jigs = Array.make n_elems S.empty in
  let var_jigs = Array.make n_vars S.empty in
  let jig_exprs = Array.make n_jigs [] in
  let jig_of_tf = Hashtbl.create 8 in
  List.iteri
    (fun j (jig : Problem.jig) ->
      List.iter (fun (tfname, _) -> Hashtbl.replace jig_of_tf tfname j) jig.Problem.tfs;
      let exprs = ref [] in
      Array.iter
        (fun (e : Netlist.Circuit.element) ->
          let reads l = exprs := l @ !exprs in
          match e with
          | Netlist.Circuit.Mosfet { name; w; l; mult; _ } -> begin
              (match Hashtbl.find_opt elem_of_name name with
              | Some i -> elem_jigs.(i) <- S.add j elem_jigs.(i)
              | None -> ());
              (* Transient and noise measurements evaluate the jig's own
                 device geometry directly, not just the bias counterpart's
                 operating point. *)
              reads [ w; l; mult ]
            end
          | Netlist.Circuit.Bjt { name; area; _ } -> begin
              (match Hashtbl.find_opt elem_of_name name with
              | Some i -> elem_jigs.(i) <- S.add j elem_jigs.(i)
              | None -> ());
              reads [ area ]
            end
          | Netlist.Circuit.Resistor { value; _ }
          | Netlist.Circuit.Capacitor { value; _ }
          | Netlist.Circuit.Inductor { value; _ } ->
              reads [ value ]
          | Netlist.Circuit.Vcvs { gain; _ } | Netlist.Circuit.Cccs { gain; _ } ->
              reads [ gain ]
          | Netlist.Circuit.Vccs { gm; _ } -> reads [ gm ]
          | Netlist.Circuit.Ccvs { r; _ } -> reads [ r ]
          (* The transient's initial DC point reads source dc values. *)
          | Netlist.Circuit.Vsource { dc; _ } | Netlist.Circuit.Isource { dc; _ } ->
              reads [ dc ])
        jig.Problem.jig_circuit.Netlist.Circuit.elements;
      jig_exprs.(j) <- List.rev !exprs;
      List.iter (fun ex -> add_var_dep var_jigs j (expr_vars [] ex)) !exprs)
    jigs;
  (* Per-spec dependencies, by walking the spec expression: tf-measuring
     calls name a jig, dotted references name a device operating point,
     bare references name variables/parameters, and the whole-solution
     functions (area/power/supply_current) force re-measurement. *)
  let spec_deps (s : Problem.spec) =
    (* Corner rows rebuild bias + ROMs under a skewed registry; every
       variable reaches that solve, so they re-measure on every eval. *)
    let always = ref (s.Problem.spec_corner <> None) in
    let screened = ref (s.Problem.spec_corner <> None) in
    let vars = ref S.empty in
    let elems = ref S.empty in
    let sjigs = ref S.empty in
    let add (all, vs) = if all then always := true else vars := S.union vs !vars in
    let rec walk (e : Netlist.Expr.t) =
      match e with
      | Netlist.Expr.Const _ -> ()
      | Netlist.Expr.Ref [ name ] -> add (ref_vars [] name)
      | Netlist.Expr.Ref parts -> begin
          let rec split_last acc = function
            | [ last ] -> (List.rev acc, last)
            | x :: rest -> split_last (x :: acc) rest
            | [] -> assert false
          in
          let devparts, _field = split_last [] parts in
          match Hashtbl.find_opt elem_of_name (String.concat "." devparts) with
          | Some i -> elems := S.add i !elems
          | None -> always := true
        end
      | Netlist.Expr.Neg a -> walk a
      | Netlist.Expr.Add (a, b)
      | Netlist.Expr.Sub (a, b)
      | Netlist.Expr.Mul (a, b)
      | Netlist.Expr.Div (a, b)
      | Netlist.Expr.Pow (a, b) ->
          walk a;
          walk b
      | Netlist.Expr.Call (f, args) when List.mem f known_tf_functions -> begin
          if List.mem f transient_functions then screened := true;
          match args with
          | Netlist.Expr.Ref [ tf ] :: rest -> begin
              (match Hashtbl.find_opt jig_of_tf tf with
              | Some j -> sjigs := S.add j !sjigs
              | None -> always := true);
              (* A later argument naming another transfer function (e.g. the
                 supply tf of psrr_db) is a jig dependency, not a variable
                 reference. *)
              List.iter
                (fun a ->
                  match a with
                  | Netlist.Expr.Ref [ tf2 ] when Hashtbl.mem jig_of_tf tf2 ->
                      sjigs := S.add (Hashtbl.find jig_of_tf tf2) !sjigs
                  | _ -> walk a)
                rest
            end
          | _ -> always := true
        end
      | Netlist.Expr.Call (f, _) when List.mem f spec_only_functions -> always := true
      | Netlist.Expr.Call (_, args) -> List.iter walk args
    in
    walk s.Problem.expr;
    {
      Problem.sd_always = !always;
      sd_vars = S.elements !vars;
      sd_elems = S.elements !elems;
      sd_jigs = S.elements !sjigs;
      sd_screened = !screened;
    }
  in
  {
    Problem.dg_var_nodes = Array.map S.elements var_nodes;
    dg_node_elems = Array.map S.elements node_elems;
    dg_var_elems = Array.map S.elements var_elems;
    dg_elem_jigs = Array.map S.elements elem_jigs;
    dg_var_jigs = Array.map S.elements var_jigs;
    dg_jig_exprs = jig_exprs;
    dg_spec_deps = Array.of_list (List.map spec_deps specs);
  }
