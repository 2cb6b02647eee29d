open Gdp_logic

type t = {
  spec : Spec.t;
  db : Database.t;
  world_view : string list;
  meta_view : string list;
  needs_loop_check : bool;
  clause_digest : string Lazy.t;
}

let rule_clause ~model (r : Spec.rule) =
  let body = Formula.to_goals ~default_model:model r.Spec.rule_body in
  let head =
    match r.Spec.rule_accuracy with
    | None ->
        Gfact.to_holds ~default_model:model
          { r.Spec.rule_head with Gfact.model = Some (Term.atom model) }
    | Some a ->
        Gfact.to_acc ~default_model:model
          { r.Spec.rule_head with Gfact.model = Some (Term.atom model) }
          a
  in
  { Database.head; body }

let propagation_clause ~model (r : Spec.rule) =
  match r.Spec.rule_accuracy with
  | Some _ -> None
  | None ->
      let body = Formula.to_goals ~default_model:model r.Spec.rule_body in
      let a = Term.var "ACC" in
      let head =
        Gfact.to_acc ~default_model:model
          { r.Spec.rule_head with Gfact.model = Some (Term.atom model) }
          a
      in
      let reified = Gdp_builtins.reify_formula ~default_model:model r.Spec.rule_body in
      Some { Database.head; body = body @ [ Term.app "ac_eval" [ reified; a ] ] }

(* A clause must not share variables with the source rule if asserted
   twice; every assert below renames, which Database.rename_clause at
   resolution time also guarantees. *)
let assert_clause db c = Database.assertz db (Database.rename_clause c)

let emit_generators spec db world_view =
  List.iter
    (fun m -> Database.fact db (Term.app Names.model_gen [ Term.atom m ]))
    world_view;
  List.iter
    (fun (s : Spec.signature) ->
      Database.fact db
        (Term.app Names.pred_gen
           [
             Term.atom s.Spec.pred_name;
             Term.int (List.length s.Spec.value_domains);
             Term.int s.Spec.object_arity;
           ]))
    (List.rev spec.Spec.signatures);
  List.iter
    (fun o -> Database.fact db (Term.app Names.obj_gen [ Term.atom o ]))
    spec.Spec.objects;
  List.iter
    (fun (r : Gdp_space.Resolution.t) ->
      Database.fact db
        (Term.app Names.space_gen [ Term.atom r.Gdp_space.Resolution.name ]))
    (List.rev spec.Spec.spaces);
  List.iter
    (fun (r : Gdp_temporal.Resolution1d.t) ->
      Database.fact db
        (Term.app "tspace" [ Term.atom r.Gdp_temporal.Resolution1d.name ]))
    (List.rev spec.Spec.tspaces);
  List.iter
    (fun (name, _) -> Database.fact db (Term.app Names.region_gen [ Term.atom name ]))
    (List.rev spec.Spec.regions)

let emit_model spec db ~propagate (md : Spec.model_def) =
  ignore spec;
  let model = md.Spec.model_name in
  List.iter
    (fun f ->
      Database.fact db
        (Gfact.to_holds ~default_model:model
           { f with Gfact.model = Some (Term.atom model) }))
    (List.rev md.Spec.facts);
  List.iter
    (fun (f, a) ->
      Database.fact db
        (Gfact.to_acc ~default_model:model
           { f with Gfact.model = Some (Term.atom model) }
           (Term.float a)))
    (List.rev md.Spec.acc_statements);
  List.iter
    (fun r ->
      assert_clause db (rule_clause ~model r);
      if propagate then
        match propagation_clause ~model r with
        | Some c -> assert_clause db c
        | None -> ())
    (List.rev md.Spec.rules);
  List.iter
    (fun r -> assert_clause db (rule_clause ~model r))
    (List.rev md.Spec.constraints)

(* the text of [string_of_int n], written without the string: the
   digits of a non-positive [m] are those of [-m], so [min_int] needs no
   special case *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add_decimal buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

(* Canonical clause rendering for {!content_hash}: variables are
   numbered by first occurrence within their clause (clause renaming
   allocates process-local ids, so [Term.pp] output is not stable across
   processes), atoms and strings are length-prefixed, and floats render
   in hex — two compilations of the same specification produce the same
   bytes in any process. *)
let digest_clause buf (c : Database.clause) =
  (* variable id -> number, newest first; a clause has few variables *)
  let ids = ref [] in
  let rec go = function
    | Term.Var v ->
        let n =
          match List.assoc_opt v.Term.id !ids with
          | Some n -> n
          | None ->
              let n = List.length !ids in
              ids := (v.Term.id, n) :: !ids;
              n
        in
        Buffer.add_char buf '?';
        add_decimal buf n
    | Term.Atom a ->
        Buffer.add_char buf 'a';
        add_decimal buf (String.length a);
        Buffer.add_char buf ':';
        Buffer.add_string buf a
    | Term.Int i ->
        Buffer.add_char buf 'i';
        add_decimal buf i
    | Term.Float f ->
        Buffer.add_char buf 'f';
        Buffer.add_string buf (Printf.sprintf "%h" f)
    | Term.Str s ->
        Buffer.add_char buf 's';
        add_decimal buf (String.length s);
        Buffer.add_char buf ':';
        Buffer.add_string buf s
    | Term.App (f, args) ->
        Buffer.add_char buf '(';
        add_decimal buf (String.length f);
        Buffer.add_char buf ':';
        Buffer.add_string buf f;
        List.iter go args;
        Buffer.add_char buf ')'
  in
  go c.Database.head;
  List.iter
    (fun g ->
      Buffer.add_char buf '-';
      go g)
    c.Database.body;
  Buffer.add_char buf '\n'

let holds_update : Spec.update -> Bottom_up.update =
  let holds = Gfact.to_holds ~default_model:Names.default_model in
  function `Assert f -> `Assert (holds f) | `Retract f -> `Retract (holds f)

let compile ?world_view ?(meta_view = []) ?(tracer = Gdp_obs.Tracer.disabled)
    spec =
  Gdp_obs.Tracer.with_span tracer ~cat:"compile" "compile" @@ fun () ->
  let world_view =
    match world_view with Some wv -> wv | None -> Spec.default_world_view spec
  in
  let models =
    List.map
      (fun name ->
        match
          List.find_opt
            (fun (m : Spec.model_def) -> String.equal m.Spec.model_name name)
            spec.Spec.models
        with
        | Some m -> m
        | None -> invalid_arg (Printf.sprintf "Compile: undeclared model %s" name))
      world_view
  in
  let metas =
    List.map
      (fun name ->
        match Spec.find_meta_model spec name with
        (* the sorts meta-model is regenerated from the signatures as they
           stand now, so predicates declared after Meta.install_standard
           are still covered *)
        | Some m when String.equal m.Spec.meta_name "sorts" -> Meta.sorts spec
        | Some m -> m
        | None ->
            invalid_arg (Printf.sprintf "Compile: undeclared meta-model %s" name))
      meta_view
  in
  let db = Engine.create () in
  Gdp_builtins.install spec db;
  List.iter
    (fun ((name, arity), fn) -> Database.register_builtin db (name, arity) fn)
    spec.Spec.extra_builtins;
  emit_generators spec db world_view;
  let propagate =
    List.exists
      (fun (m : Spec.meta_model) ->
        String.equal m.Spec.meta_name Meta.fuzzy_propagation_name)
      metas
  in
  List.iter (emit_model spec db ~propagate) models;
  (* the clauses the digest covers are captured now — after the models,
     before the update-log replay — so a snapshot saved from an
     incrementally updated session carries the same key a fresh
     compilation of the written specification computes: updates persist
     through the snapshot's own log, never through the key. The meta
     clauses (asserted last) are folded in from [metas] directly. Only
     the snapshot key reads the digest, so it is rendered on first use. *)
  let clause_digest =
    let frozen = Database.freeze db in
    lazy
      (let buf = Buffer.create 4096 in
       List.iter (fun (_, clauses) -> List.iter (digest_clause buf) clauses) (frozen ());
       List.iter
         (fun (m : Spec.meta_model) ->
           Buffer.add_string buf m.Spec.meta_name;
           Buffer.add_char buf '\n';
           List.iter (digest_clause buf) m.Spec.meta_clauses)
         metas;
       Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  (* replay the specification's update log so a fresh compilation agrees
     with a database maintained incrementally through Query.update *)
  List.iter
    (fun u -> Database.update_fact db (holds_update u))
    (Spec.update_log spec);
  List.iter
    (fun (m : Spec.meta_model) ->
      List.iter (fun c -> assert_clause db c) m.Spec.meta_clauses)
    metas;
  let needs_loop_check =
    List.exists (fun (m : Spec.meta_model) -> m.Spec.needs_loop_check) metas
  in
  { spec; db; world_view; meta_view; needs_loop_check; clause_digest }

(* holds/6 and acc/7 carry the user predicate as the constant at argument
   1; splitting their relations there lets the bottom-up evaluator
   stratify compiled specifications predicate by predicate instead of
   collapsing the whole base into one recursive holds/6 relation *)
let datalog_refine : Bottom_up.refine =
 fun (name, arity) ->
  if (String.equal name Names.holds && arity = 6)
     || (String.equal name Names.acc && arity = 7)
     || (String.equal name Names.acc_max && arity = 7)
  then Some 1
  else None

(* The four spatial builtins the bottom-up engine may evaluate natively:
   each maps to the argument positions that must be bound before the
   literal fires (its "inputs"). Everything spatial but deterministic in
   its inputs qualifies; enumeration modes that need unbound inputs
   (res_refines, res_canon with P1 free, ...) stay top-down-only. *)
let spatial_ext = function
  | "pt_dist", 3 -> Some [ 0; 1 ]
  | "region_mem", 2 -> Some [ 0; 1 ]
  | "region_reps", 3 -> Some [ 0; 1 ]
  | "res_subcells", 4 -> Some [ 0; 1; 2 ]
  | _ -> None

(* A whitelisted goal is solved by the registered builtin itself, so the
   bottom-up model agrees with top-down SLDNF literal by literal. *)
let spatial_hints spec : Bottom_up.spatial =
  let builtins = Database.create () in
  Gdp_builtins.install spec builtins;
  {
    Bottom_up.sp_ext = spatial_ext;
    sp_solve =
      (fun goal ->
        List.map (fun s -> Subst.apply s goal) (Solve.all builtins [ goal ]));
    sp_region_box =
      (fun name ->
        Option.bind (Spec.find_region spec name) Gdp_space.Spatial_index.box_of_region);
    sp_point =
      (fun t ->
        (* relation arguments carry reified spatial terms, so accept a
           point one [at(...)] constructor deep as well as bare pos/2-3 *)
        let t =
          match t with
          | Term.App (f, [ p ]) when String.equal f Names.at -> p
          | _ -> t
        in
        match Gfact.pos_of_term t with
        | Some p -> Some (p.Gdp_space.Point.x, p.Gdp_space.Point.y)
        | None -> None);
    sp_boxable =
      (match spec.Spec.coord with
      | Gdp_space.Coord.Cartesian | Gdp_space.Coord.Utm _ -> true
      | Gdp_space.Coord.Polar | Gdp_space.Coord.Geographic -> false);
  }

(* The snapshot key: the compiled clause sequence (exact order — rule
   order decides which derivation a proof shows) plus everything
   outside the clause store that changes what a materialised fixpoint
   derives: views, the
   coordinate system, region geometries, logical space/time resolutions
   and the fuzzy algebra. *)
let content_hash (c : t) =
  let spec = c.spec in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Lazy.force c.clause_digest);
  Buffer.add_string buf "|wv:";
  List.iter
    (fun m ->
      Buffer.add_string buf m;
      Buffer.add_char buf ',')
    c.world_view;
  Buffer.add_string buf "|mv:";
  List.iter
    (fun m ->
      Buffer.add_string buf m;
      Buffer.add_char buf ',')
    c.meta_view;
  Buffer.add_string buf
    (Format.asprintf "|coord:%a" Gdp_space.Coord.pp spec.Spec.coord);
  List.iter
    (fun (name, r) ->
      Buffer.add_string buf
        (Format.asprintf "|region %s:%a" name Gdp_space.Region.pp r))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) spec.Spec.regions);
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Format.asprintf "|space:%a" Gdp_space.Resolution.pp r))
    (List.rev spec.Spec.spaces);
  List.iter
    (fun (r : Gdp_temporal.Resolution1d.t) ->
      Buffer.add_string buf ("|tspace:" ^ r.Gdp_temporal.Resolution1d.name))
    (List.rev spec.Spec.tspaces);
  Buffer.add_string buf
    (Printf.sprintf "|fuzzy:%d" (Hashtbl.hash spec.Spec.fuzzy_family));
  Digest.to_hex (Digest.string (Buffer.contents buf))
