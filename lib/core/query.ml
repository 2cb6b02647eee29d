open Gdp_logic

type engine_mode = Top_down | Materialized | Magic

type t = {
  compiled : Compile.t;
  options : Solve.options;
  tracer : Gdp_obs.Tracer.t;
  solve_stats : Solve.stats option;
  mode : engine_mode;
  fp : Bottom_up.fixpoint option ref;
      (** lazily computed; the ref (not just its content) is shared by the
          [with_mode] copies of this query, so materialising — or
          incrementally maintaining, see {!update} — through one copy is
          visible to all of them *)
  magic : (Term.t * Bottom_up.fixpoint * Gdp_logic.Magic.info) option ref;
      (** last magic-set evaluation, keyed by its goal; shared across
          [with_mode] copies like [fp], and invalidated (not repaired) by
          {!update} — the magic seeds depend on the goal, not the base,
          so a stale fixpoint would silently miss new derivations *)
  snap : (int * int) option ref;
      (** [(bytes, facts)] of a loaded snapshot; [Some] marks [fp] as the
          {e full} materialisation loaded from disk, so magic mode
          answers from it instead of rewriting — shared across
          [with_mode] copies like [fp] *)
}

let of_compiled ?(max_depth = 100_000) ?(on_depth = `Raise) ?mode
    ?(tracer = Gdp_obs.Tracer.disabled) (compiled : Compile.t) =
  let mode = Option.value mode ~default:Top_down in
  let solve_stats =
    if Gdp_obs.Tracer.enabled tracer then
      Some (Solve.create_stats ~refine:Compile.datalog_refine ())
    else None
  in
  {
    compiled;
    options =
      {
        Solve.default_options with
        max_depth;
        on_depth;
        loop_check = compiled.Compile.needs_loop_check;
        stats = solve_stats;
        tracer;
      };
    tracer;
    solve_stats;
    mode;
    fp = ref None;
    magic = ref None;
    snap = ref None;
  }

let create ?world_view ?meta_view ?max_depth ?on_depth ?mode
    ?(tracer = Gdp_obs.Tracer.disabled) spec =
  of_compiled ?max_depth ?on_depth ?mode ~tracer
    (Compile.compile ?world_view ?meta_view ~tracer spec)

let spec q = q.compiled.Compile.spec
let db q = q.compiled.Compile.db
let world_view q = q.compiled.Compile.world_view
let meta_view q = q.compiled.Compile.meta_view
let mode q = q.mode
let with_mode q mode = { q with mode }

let materializable q =
  Bottom_up.classify ~refine:Compile.datalog_refine
    ~spatial:(Compile.spatial_hints (spec q))
    (db q)

let materialization q =
  match !(q.fp) with
  | Some fp -> fp
  | None ->
      let fp =
        Gdp_obs.Tracer.with_span q.tracer ~cat:"query" "materialize"
          (fun () ->
            Bottom_up.run ~refine:Compile.datalog_refine
              ~spatial:(Compile.spatial_hints (spec q)) ~tracer:q.tracer
              (db q))
      in
      q.fp := Some fp;
      fp

(* Goal-directed evaluation: rewrite the base for [goal] (magic sets),
   run the bottom-up engine over the rewritten program seeded with the
   goal's bound arguments, and cache the result keyed by the goal term.
   The cache only hits on the exact same goal (variable identities
   included) — conservative, but never stale across distinct goals. *)
let magic_materialization q goal =
  match !(q.magic) with
  | Some (g, fp, info) when Term.compare g goal = 0 -> (fp, info)
  | _ ->
      let result =
        Gdp_obs.Tracer.with_span q.tracer ~cat:"query" "magic" (fun () ->
            let spatial = Compile.spatial_hints (spec q) in
            let rewritten, info =
              Magic.rewrite ~refine:Compile.datalog_refine ~spatial
                ~tracer:q.tracer ~goal (db q)
            in
            let fp =
              Bottom_up.run ~refine:Compile.datalog_refine ~spatial
                ~tracer:q.tracer ~seed:info.Magic.seeds rewritten
            in
            (fp, info))
      in
      q.magic := Some (goal, fst result, snd result);
      result

let magic_info q = Option.map (fun (_, _, i) -> i) !(q.magic)
let op_span q name fn = Gdp_obs.Tracer.with_span q.tracer ~cat:"query" name fn

(* ------------------------------------------------------------------ *)
(* persistent snapshots: compile once, query many *)

type snapshot_error = Snapshot_stale of string | Snapshot_corrupt of string

let snapshot_error_message = function
  | Snapshot_stale m | Snapshot_corrupt m -> m

(* The update log rides in a snapshot's meta as one term: the list of
   its updates as [assert(F)] or [retract(F)] over each fact's [holds/6]
   term. *)
let encode_update_log (log : Spec.update list) =
  let b = Buffer.create 64 in
  Wire.add_term b
    (Term.list
       (List.map
          (fun u ->
            match Compile.holds_update u with
            | `Assert t -> Term.app "assert" [ t ]
            | `Retract t -> Term.app "retract" [ t ])
          log));
  Buffer.contents b

(* The inverse of [encode_update_log], holding each update to what
   {!update} accepts; anything else raises [Wire.Corrupt]. *)
let decode_update_log meta : Spec.update list =
  let r = Wire.reader meta ~pos:0 ~len:(String.length meta) in
  let update = function
    | Term.App (tag, [ h ]) -> (
        match (tag, Gfact.of_holds h) with
        | "assert", Some ({ Gfact.pred = Term.Atom _; _ } as f) -> `Assert f
        | "retract", Some ({ Gfact.pred = Term.Atom _; _ } as f) -> `Retract f
        | _ -> Wire.corrupt "a logged update is not a fact update")
    | _ -> Wire.corrupt "a logged update is not a fact update"
  in
  match Term.as_list (Wire.term r) with
  | Some log when Wire.at_end r -> List.map update log
  | _ -> Wire.corrupt "the update log is not a list"

let save_snapshot q path =
  op_span q "save_snapshot" @@ fun () ->
  let fp = materialization q in
  let state = Bottom_up.export fp in
  (* the update log rides in the container's opaque meta payload:
     [of_snapshot] replays it into the freshly compiled database, so a
     snapshot saved after {!update} batches loads coherently *)
  let meta = encode_update_log (Spec.update_log (spec q)) in
  let bytes =
    Snapshot.save ~tracer:q.tracer ~path
      { Snapshot.key = Compile.content_hash q.compiled; meta; state }
  in
  (bytes, Bottom_up.snapshot_facts state)

(* Replay the snapshot's persisted update log into the compiled
   database. The specification's own log must be a prefix of the
   persisted one (it is empty on a fresh CLI load; it equals the
   persisted log when saving and reloading within one session) — a
   diverging log means the snapshot belongs to a different update
   history, which is staleness, not corruption. *)
let replay_snapshot_updates q (saved : Spec.update list) =
  let key = Compile.holds_update in
  let rec drop_prefix known saved =
    match (known, saved) with
    | [], rest -> Some rest
    | k :: ks, s :: ss when key k = key s -> drop_prefix ks ss
    | _ -> None
  in
  match drop_prefix (Spec.update_log (spec q)) saved with
  | None ->
      Error
        (Snapshot_stale
           "the snapshot's persisted update log diverges from this \
            session's updates")
  | Some fresh ->
      let database = db q in
      List.iter
        (fun u ->
          Database.update_fact database (Compile.holds_update u);
          Spec.log_update (spec q) u)
        fresh;
      Ok ()

let of_snapshot q path =
  op_span q "of_snapshot" @@ fun () ->
  match Snapshot.load ~tracer:q.tracer ~path () with
  | exception Snapshot.Corrupt msg -> Error (Snapshot_corrupt msg)
  | snap, bytes -> (
      let want =
        Gdp_obs.Tracer.with_span q.tracer ~cat:"snapshot" "snap.key"
          (fun () -> Compile.content_hash q.compiled)
      in
      if not (String.equal snap.Snapshot.key want) then
        Error
          (Snapshot_stale
             "its key does not match the specification and views")
      else
        match decode_update_log snap.Snapshot.meta with
        | exception Wire.Corrupt msg ->
            Error (Snapshot_corrupt (path ^ ": update log: " ^ msg))
        | saved_updates -> (
            match replay_snapshot_updates q saved_updates with
            | Error e -> Error e
            | Ok () -> (
                match
                  Bottom_up.import ~refine:Compile.datalog_refine
                    ~spatial:(Compile.spatial_hints (spec q))
                    ~tracer:q.tracer (db q) snap.Snapshot.state
                with
                | fp ->
                    let facts = Bottom_up.snapshot_facts snap.Snapshot.state in
                    q.fp := Some fp;
                    q.snap := Some (bytes, facts);
                    Ok (bytes, facts)
                | exception Snapshot.Corrupt msg ->
                    Error (Snapshot_corrupt (path ^ ": " ^ msg))
                | exception Bottom_up.Unsupported msg ->
                    Error (Snapshot_stale msg))))

let snapshot_loaded q = !(q.snap)

(* The fixpoint a bottom-up answer should come from, paired with the
   proof post-processing the mode needs (magic proofs carry the
   rewrite's magic$ guard premises; full-model proofs do not). With a
   loaded snapshot the {e full} model is already materialised, so magic
   mode answers from it directly — goal-directed rewriting could only
   recompute a subset of what is already in memory, and on the shared
   fragment the two agree answer for answer. *)
let goal_fixpoint q goal =
  match q.mode with
  | Top_down | Materialized -> (materialization q, fun p -> p)
  | Magic ->
      if !(q.snap) = None then
        let fp, _ = magic_materialization q goal in
        (fp, Magic.strip_proof)
      else (materialization q, fun p -> p)

let update q (updates : Spec.update list) =
  Gdp_obs.Tracer.with_span q.tracer ~cat:"query" "update" @@ fun () ->
  (* validate the whole batch before touching anything, so a bad entry
     cannot leave the database and the cached fixpoint disagreeing *)
  let resolved =
    List.map
      (fun u ->
        let f = match u with `Assert f | `Retract f -> f in
        if not (Gfact.is_ground f) then
          invalid_arg "Query.update: facts must be ground";
        (match f.Gfact.pred with
        | Term.Atom _ -> ()
        | _ -> invalid_arg "Query.update: the predicate must be a constant");
        Compile.holds_update u)
      updates
  in
  let database = db q in
  let frozen = Database.freeze database and log = (spec q).Spec.updates in
  List.iter (Database.update_fact database) resolved;
  List.iter (fun u -> Spec.log_update (spec q) u) updates;
  (* a magic fixpoint is goal-specific and cheap to rebuild: drop it so
     the next magic query re-seeds from the updated base instead of
     answering from stale derivations *)
  q.magic := None;
  (match !(q.fp) with
  | None -> () (* nothing materialised yet: the next run sees the new base *)
  | Some fp -> (
      match Bottom_up.apply fp resolved with
      | () -> ()
      | exception (Bottom_up.Bound_exceeded _ as e) ->
          (* the batch stopped half-applied: drop the model, and put the
             predicates the batch touched and the log back as they were,
             so the next answer re-runs from the base before the batch *)
          q.fp := None;
          let touched =
            List.sort_uniq compare
              (List.map
                 (fun (`Assert t | `Retract t) -> Option.get (Term.functor_of t))
                 resolved)
          in
          List.iter (Database.retract_all database) touched;
          List.iter
            (fun (fa, clauses) ->
              if List.mem fa touched then List.iter (Database.assertz database) clauses)
            (frozen ());
          (spec q).Spec.updates <- log;
          raise e));
  q

let tracer q = q.tracer
let solve_stats q = q.solve_stats

let take limit l =
  match limit with
  | None -> l
  | Some n -> List.filteri (fun i _ -> i < n) l

let holds q pattern =
  op_span q "holds" @@ fun () ->
  let goal = Gfact.to_holds ~default_model:Names.default_model pattern in
  match q.mode with
  | Top_down -> Solve.succeeds ~options:q.options (db q) [ goal ]
  | Materialized | Magic ->
      let fp = fst (goal_fixpoint q goal) in
      if Term.is_ground goal then Bottom_up.holds fp goal
      else
        List.exists
          (fun fact -> Unify.unify Subst.empty goal fact <> None)
          (Bottom_up.probe fp goal)

(* distinct answers in first-derivation order *)
let dedupe_by key l =
  let seen = Path_key.Tbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      (not (Path_key.Tbl.mem seen k)) && (Path_key.Tbl.add seen k (); true))
    l

(* A fixpoint's answers to [goal]: the facts its argument indexes
   narrow the goal to that unify with it, each with its unifier, in the
   standard order of terms a full sorted scan used to produce. *)
let fixpoint_answers fp goal =
  Bottom_up.probe fp goal
  |> List.filter_map (fun fact ->
         Option.map (fun s -> (fact, s)) (Unify.unify Subst.empty goal fact))
  |> List.sort (fun (a, _) (b, _) -> Term.compare a b)

let solutions ?limit q pattern =
  op_span q "solutions" @@ fun () ->
  let goal = Gfact.to_holds ~default_model:Names.default_model pattern in
  match q.mode with
  | Top_down ->
      Solve.all ~options:q.options ?limit (db q) [ goal ]
      |> List.filter_map (fun s -> Gfact.of_holds (Subst.apply s goal))
      |> dedupe_by (Gfact.to_holds ~default_model:Names.default_model)
  | Materialized | Magic ->
      fixpoint_answers (fst (goal_fixpoint q goal)) goal
      |> List.filter_map (fun (fact, _) -> Gfact.of_holds fact)
      |> take limit

let accuracy q pattern =
  op_span q "accuracy" @@ fun () ->
  let a = Term.var "A" in
  let goal = Gfact.to_acc_max ~default_model:Names.default_model pattern a in
  match Solve.first ~options:q.options (db q) [ goal ] with
  | None -> None
  | Some s -> (
      match Subst.apply s a with
      | Term.Float f -> Some f
      | Term.Int n -> Some (float_of_int n)
      | _ -> None)

let accuracies ?limit q pattern =
  op_span q "accuracies" @@ fun () ->
  let a = Term.var "A" in
  let hgoal = Gfact.to_holds ~default_model:Names.default_model pattern in
  let goal = Gfact.to_acc_max ~default_model:Names.default_model pattern a in
  Solve.all ~options:q.options ?limit (db q) [ goal ]
  |> List.filter_map (fun s ->
         match (Gfact.of_holds (Subst.apply s hgoal), Subst.apply s a) with
         | Some fact, Term.Float f -> Some (fact, f)
         | Some fact, Term.Int n -> Some (fact, float_of_int n)
         | _ -> None)
  |> dedupe_by (fun (f, _) -> Gfact.to_holds ~default_model:Names.default_model f)

type violation = {
  v_model : string;
  v_tag : string;
  v_args : Term.t list;
  v_objects : Term.t list;
}

let decode_violation_parts model values objects =
  match (model, values, objects) with
  | Term.Atom v_model, Some (Term.Atom v_tag :: v_args), Some v_objects ->
      Some { v_model; v_tag; v_args; v_objects }
  | _ -> None

let decode_violation fact =
  match fact with
  | Term.App (_, [ model; Term.Atom p; vs; os; _; _ ])
    when String.equal p Names.error_pred ->
      decode_violation_parts model (Term.as_list vs) (Term.as_list os)
  | _ -> None

let violations ?limit q =
  op_span q "violations" @@ fun () ->
  let m = Term.var "M"
  and vs = Term.var "Vs"
  and os = Term.var "Os"
  and s = Term.var "S"
  and tm = Term.var "T" in
  let goal =
    Term.app Names.holds
      [ m; Term.atom Names.error_pred; vs; os; s; tm ]
  in
  match q.mode with
  | Top_down ->
      Solve.all ~options:q.options ?limit (db q) [ goal ]
      |> List.filter_map (fun subst ->
             decode_violation_parts (Subst.apply subst m)
               (Term.as_list (Subst.apply subst vs))
               (Term.as_list (Subst.apply subst os)))
      |> List.sort_uniq compare
  | Materialized | Magic ->
      let fp = fst (goal_fixpoint q goal) in
      Bottom_up.probe fp goal
      |> List.filter_map decode_violation
      |> List.sort_uniq compare
      |> take limit

let consistent q = violations ~limit:1 q = []

let violation_proofs ?limit q =
  op_span q "violation_proofs" @@ fun () ->
  let m = Term.var "M"
  and vs = Term.var "Vs"
  and os = Term.var "Os"
  and s = Term.var "S"
  and tm = Term.var "T" in
  let goal =
    Term.app Names.holds [ m; Term.atom Names.error_pred; vs; os; s; tm ]
  in
  match q.mode with
  | Top_down ->
      (* one proof per distinct ERROR fact, first-derivation order *)
      let seen = Path_key.Tbl.create 16 in
      let rec collect acc n seq =
        if match limit with Some l -> n >= l | None -> false then
          List.rev acc
        else
          match Seq.uncons seq with
          | None -> List.rev acc
          | Some ((subst, proofs), rest) -> (
              let fact = Subst.apply subst goal in
              match (decode_violation fact, proofs) with
              | Some v, [ proof ] ->
                  if Path_key.Tbl.mem seen fact then collect acc n rest
                  else begin
                    Path_key.Tbl.add seen fact ();
                    collect ((v, proof) :: acc) (n + 1) rest
                  end
              | _ -> collect acc n rest)
      in
      collect [] 0 (Explain.prove ~options:q.options (db q) [ goal ])
  | Materialized | Magic ->
      let fp, strip = goal_fixpoint q goal in
      Bottom_up.probe fp goal
      |> List.filter (fun fact -> decode_violation fact <> None)
      |> List.sort Term.compare
      |> take limit
      |> List.filter_map (fun fact ->
             match decode_violation fact with
             | None -> None
             | Some v -> Option.map (fun p -> (v, strip p)) (Bottom_up.proof fp fact))

let rec pp_reified ppf (t : Term.t) =
  match Gfact.of_holds t with
  | Some f -> Gfact.pp ppf f
  | None -> (
      match t with
      | Term.App (f, [ m; pred; vs; os; s; tm; a ])
        when String.equal f Names.acc || String.equal f Names.acc_max -> (
          match Gfact.of_holds (Term.app Names.holds [ m; pred; vs; os; s; tm ]) with
          | Some fact -> Format.fprintf ppf "%%%a %a" Term.pp a Gfact.pp fact
          | None -> Term.pp ppf t)
      (* recurse through the control structure so goals inside forall,
         conjunctions and negations also render in fact notation *)
      | Term.App ("forall", [ g; c ]) ->
          Format.fprintf ppf "forall(%a => %a)" pp_reified g pp_reified c
      | Term.App (",", [ x; y ]) ->
          Format.fprintf ppf "%a, %a" pp_reified x pp_reified y
      | Term.App (";", [ x; y ]) ->
          Format.fprintf ppf "(%a ; %a)" pp_reified x pp_reified y
      | Term.App (("\\+" | "not"), [ g ]) ->
          Format.fprintf ppf "not (%a)" pp_reified g
      | _ -> Term.pp ppf t)

let pp_reified_term = pp_reified

let explain_proof q pattern =
  op_span q "explain" @@ fun () ->
  let goal = Gfact.to_holds ~default_model:Names.default_model pattern in
  match q.mode with
  | Top_down -> (
      match Explain.first ~options:q.options (db q) [ goal ] with
      | Some (_, [ proof ]) -> Some proof
      | Some (_, _) | None -> None)
  | Materialized | Magic ->
      (* from the answering fixpoint's lineage; magic-mode trees are
         stripped of the rewrite's magic$ guard premises. A non-ground
         pattern explains its first stored instance, in the standard
         order of terms — the same answer a sorted solutions scan leads
         with *)
      let fp, strip = goal_fixpoint q goal in
      let target =
        if Term.is_ground goal then
          if Bottom_up.holds fp goal then Some goal else None
        else
          match fixpoint_answers fp goal with
          | [] -> None
          | (t, _) :: _ -> Some t
      in
      Option.bind target (fun t -> Option.map strip (Bottom_up.proof fp t))

let explain q pattern =
  explain_proof q pattern
  |> Option.map (fun proof ->
         Format.asprintf "%a" (Explain.pp ~pp_goal:pp_reified) proof)

(* Raw goals in the fixpoint modes: a single atomic goal is answered
   from [goal_fixpoint]; a conjunction is no stored relation. *)
let single_goal goals =
  match goals with
  | [ goal ] -> goal
  | _ ->
      raise
        (Bottom_up.Unsupported "ask takes a single atomic goal (no conjunctions)")

let ask q src =
  op_span q "ask" @@ fun () ->
  let goals = Reader.goals src in
  match q.mode with
  | Materialized | Magic ->
      let goal = single_goal goals in
      let fp = fst (goal_fixpoint q goal) in
      List.exists
        (fun fact -> Unify.unify Subst.empty goal fact <> None)
        (Bottom_up.probe fp goal)
  | Top_down -> Solve.succeeds ~options:q.options (db q) goals

let ask_all ?limit q src =
  op_span q "ask_all" @@ fun () ->
  let goals = Reader.goals src in
  match q.mode with
  | Materialized | Magic ->
      let goal = single_goal goals in
      fixpoint_answers (fst (goal_fixpoint q goal)) goal
      |> List.map (fun (_, s) -> Subst.restrict (Engine.named_vars goals) s)
      |> take limit
  | Top_down ->
      Solve.all ~options:q.options ?limit (db q) goals
      |> List.map (fun s -> Subst.restrict (Engine.named_vars goals) s)

let pp_stats ppf q =
  Format.fprintf ppf "@[<v>engine: %s@,"
    (match q.mode with
    | Top_down -> "top-down"
    | Materialized -> "materialized"
    | Magic -> "magic");
  (match q.solve_stats with
  | None -> ()
  | Some s ->
      (match Solve.stats_ports s with
      | [] -> ()
      | ports ->
          let w =
            List.fold_left (fun w (row, _) -> max w (String.length row)) 24 ports
          in
          Format.fprintf ppf "%-*s %8s %8s %8s %8s %8s@," w "predicate" "call"
            "exit" "redo" "fail" "unify";
          List.iter
            (fun (row, (pc : Solve.port_counts)) ->
              Format.fprintf ppf "%-*s %8d %8d %8d %8d %8d@," w row pc.Solve.calls
                pc.Solve.exits pc.Solve.redos pc.Solve.fails pc.Solve.unifications)
            ports);
      Format.fprintf ppf
        "unifications: %d  loop prunes: %d  deepest call: %d@,"
        s.Solve.unifications s.Solve.loop_prunes s.Solve.deepest_call;
      if q.mode = Top_down then
        let c = Database.index_counts (db q) in
        Format.fprintf ppf
          "clause index: %d branch builds over %d entries  %d shared skips@,"
          c.Database.branch_builds c.Database.branch_entries
          c.Database.shared_skips);
  (match !(q.snap) with
  | Some (bytes, facts) ->
      Format.fprintf ppf "snapshot: loaded %d facts (%d bytes)@," facts bytes
  | None -> ());
  (match !(q.fp) with
  | Some fp -> Bottom_up.pp_stats ppf (Bottom_up.stats fp)
  | None -> ());
  (match !(q.magic) with
  | Some (_, fp, (info : Magic.info)) ->
      Format.fprintf ppf
        "magic: %d adornments  %d magic rules  %d guarded  %d copied  %d \
         dropped  %d seeds@,"
        (List.length info.Magic.adorned)
        info.Magic.magic_rules info.Magic.guarded_rules info.Magic.copied_rules
        info.Magic.dropped_rules
        (List.length info.Magic.seeds);
      Format.fprintf ppf "magic fallback: %d predicates  %d strata%s@,"
        (List.length info.Magic.fallback_preds)
        info.Magic.fallback_strata
        (if info.Magic.full_fallback then "  (full fallback)" else "");
      Bottom_up.pp_stats ppf (Bottom_up.stats fp)
  | None -> ());
  Format.fprintf ppf "@]"

let pp_violation ppf v =
  Format.fprintf ppf "%s: ERROR(%s%a)%a" v.v_model v.v_tag
    (fun ppf -> function
      | [] -> ()
      | args ->
          Format.fprintf ppf ", %a"
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
               Term.pp)
            args)
    v.v_args
    (fun ppf -> function
      | [] -> ()
      | objs ->
          Format.fprintf ppf " on (%a)"
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
               Term.pp)
            objs)
    v.v_objects
