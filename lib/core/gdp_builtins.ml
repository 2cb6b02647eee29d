open Gdp_logic
module Sd = Gdp_domain.Semantic_domain
module Res = Gdp_space.Resolution
module Res1 = Gdp_temporal.Resolution1d
module Iv = Gdp_temporal.Interval

let ret = Seq.return

let unify_ret subst a b =
  match Unify.unify subst a b with Some s -> ret s | None -> Seq.empty

let walk = Subst.walk

let point_arg subst t = Gfact.pos_of_term (Subst.apply subst t)

let space_arg spec subst t =
  match walk subst t with
  | Term.Atom name -> Spec.find_space spec name
  | _ -> None

let tspace_arg spec subst t =
  match walk subst t with
  | Term.Atom name -> Spec.find_tspace spec name
  | _ -> None

let interval_arg spec subst t =
  match Subst.apply subst t with
  | Term.App ("cell", [ Term.Atom r; instant ]) -> (
      (* symbolic logical-time cell: [&u[R] t] from the surface syntax *)
      match (Spec.find_tspace spec r, instant) with
      | Some res, Term.Float x -> Some (Res1.cell_of res x)
      | Some res, Term.Int n -> Some (Res1.cell_of res (float_of_int n))
      | _ -> None)
  | applied -> Gfact.interval_of_term ~clock:spec.Spec.clock applied

let number_arg subst t =
  match walk subst t with
  | Term.Int n -> Some (float_of_int n)
  | Term.Float f -> Some f
  | Term.Atom a when String.equal a Names.now ->
      None (* resolved only in interval bounds *)
  | _ -> None

(* ---------- spatial ---------- *)

let bi_pt_dist spec (_ : Database.ctx) subst = function
  | [ p1; p2; d ] -> (
      match (point_arg subst p1, point_arg subst p2) with
      | Some a, Some b ->
          unify_ret subst d (Term.float (Gdp_space.Coord.distance spec.Spec.coord a b))
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_pt_direction spec (_ : Database.ctx) subst = function
  | [ p1; p2; dir ] -> (
      match (point_arg subst p1, point_arg subst p2) with
      | Some a, Some b ->
          unify_ret subst dir
            (Term.float (Gdp_space.Coord.direction spec.Spec.coord a b))
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_res_apply spec (_ : Database.ctx) subst = function
  | [ r; p; p0 ] -> (
      match (space_arg spec subst r, point_arg subst p) with
      | Some res, Some pt -> unify_ret subst p0 (Gfact.pos_term (Res.apply res pt))
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_res_same_cell spec (_ : Database.ctx) subst = function
  | [ r; p1; p2 ] -> (
      match (space_arg spec subst r, point_arg subst p1, point_arg subst p2) with
      | Some res, Some a, Some b ->
          if Res.same_cell res a b then ret subst else Seq.empty
      | _ -> Seq.empty)
  | _ -> Seq.empty

(* Strict refinement; unbound arguments enumerate declared spaces. *)
let bi_res_refines spec (_ : Database.ctx) subst = function
  | [ r2; r1 ] ->
      let candidates t =
        match walk subst t with
        | Term.Atom name -> (
            match Spec.find_space spec name with Some r -> [ r ] | None -> [])
        | Term.Var _ -> List.rev spec.Spec.spaces
        | _ -> []
      in
      let fines = candidates r2 and coarses = candidates r1 in
      List.to_seq fines
      |> Seq.concat_map (fun (fine : Res.t) ->
             List.to_seq coarses
             |> Seq.filter_map (fun (coarse : Res.t) ->
                    if
                      (not (String.equal fine.Res.name coarse.Res.name))
                      && Res.refines ~fine ~coarse
                    then
                      match
                        Unify.unify subst r2 (Term.atom fine.Res.name)
                      with
                      | None -> None
                      | Some s -> (
                          match Unify.unify s r1 (Term.atom coarse.Res.name) with
                          | Some s' -> Some s'
                          | None -> None)
                    else None))
  | _ -> Seq.empty

let bi_res_subcells spec (_ : Database.ctx) subst = function
  | [ r2; r1; p; ps ] -> (
      match (space_arg spec subst r2, space_arg spec subst r1, point_arg subst p) with
      | Some fine, Some coarse, Some pt when Res.refines ~fine ~coarse ->
          let reps = Res.subcell_representatives ~fine ~coarse pt in
          unify_ret subst ps (Term.list (List.map Gfact.pos_term reps))
      | _ -> Seq.empty)
  | _ -> Seq.empty

(* res_canon(R, P, P1): relate a point to a point of the same R-cell.
   With P1 ground it is res_same_cell; with P1 unbound it binds P1 to the
   representative point R(P) — giving the meta-rules a terminating
   enumeration mode. *)
let bi_res_canon spec (_ : Database.ctx) subst = function
  | [ r; p; p1 ] -> (
      match (space_arg spec subst r, point_arg subst p) with
      | Some res, Some pt -> (
          match point_arg subst p1 with
          | Some pt1 -> if Res.same_cell res pt pt1 then ret subst else Seq.empty
          | None -> unify_ret subst p1 (Gfact.pos_term (Res.apply res pt)))
      | _ -> Seq.empty)
  | _ -> Seq.empty

(* res_subcell_member(R2, R1, P1, P2): P2 ranges over the R2-subcell
   representatives of the R1-cell containing P1; with P2 ground it checks
   co-location instead. *)
let bi_res_subcell_member spec (_ : Database.ctx) subst = function
  | [ r2; r1; p1; p2 ] -> (
      match
        (space_arg spec subst r2, space_arg spec subst r1, point_arg subst p1)
      with
      | Some fine, Some coarse, Some pt when Res.refines ~fine ~coarse -> (
          match point_arg subst p2 with
          | Some pt2 ->
              if Res.same_cell coarse pt pt2 then ret subst else Seq.empty
          | None ->
              Res.subcell_representatives ~fine ~coarse pt
              |> List.to_seq
              |> Seq.filter_map (fun rep ->
                     Unify.unify subst p2 (Gfact.pos_term rep)))
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_region_mem spec (_ : Database.ctx) subst = function
  | [ name; p ] -> (
      match (walk subst name, point_arg subst p) with
      | Term.Atom n, Some pt -> (
          match Spec.find_region spec n with
          | Some region when Gdp_space.Region.mem pt region -> ret subst
          | _ -> Seq.empty)
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_region_reps spec (_ : Database.ctx) subst = function
  | [ r; name; p ] -> (
      match (space_arg spec subst r, walk subst name) with
      | Some res, Term.Atom n -> (
          match Spec.find_region spec n with
          | None -> Seq.empty
          | Some region ->
              Res.representatives res region
              |> List.to_seq
              |> Seq.filter_map (fun pt ->
                     Unify.unify subst p (Gfact.pos_term pt)))
      | _ -> Seq.empty)
  | _ -> Seq.empty

(* ---------- temporal ---------- *)

let bi_iv_mem spec (_ : Database.ctx) subst = function
  | [ t; iv ] -> (
      match (number_arg subst t, interval_arg spec subst iv) with
      | Some x, Some interval ->
          if Iv.mem x interval then ret subst else Seq.empty
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_iv_subset spec (_ : Database.ctx) subst = function
  | [ iv1; iv2 ] -> (
      match (interval_arg spec subst iv1, interval_arg spec subst iv2) with
      | Some a, Some b -> if Iv.subset a ~of_:b then ret subst else Seq.empty
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_iv_before spec (_ : Database.ctx) subst = function
  | [ iv1; iv2 ] -> (
      match (interval_arg spec subst iv1, interval_arg spec subst iv2) with
      | Some a, Some b -> if Iv.before a b then ret subst else Seq.empty
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_iv_make spec (_ : Database.ctx) subst = function
  | [ lo; hi; iv ] -> (
      let candidate =
        Term.app Names.interval [ Subst.apply subst lo; Subst.apply subst hi ]
      in
      match interval_arg spec subst candidate with
      | Some interval -> unify_ret subst iv (Gfact.interval_term interval)
      | None -> Seq.empty)
  | _ -> Seq.empty

(* cyc_mem(T, Period, Iv): the phase of T within a cycle of the given
   period falls inside the phase interval — the cyclic extension of the
   interval-uniform operator (§VI-B mentions it without details). *)
let bi_cyc_mem spec (_ : Database.ctx) subst = function
  | [ t; period; iv ] -> (
      match
        (number_arg subst t, number_arg subst period, interval_arg spec subst iv)
      with
      | Some x, Some p, Some interval when p > 0.0 ->
          let phase = Float.rem x p in
          let phase = if phase < 0.0 then phase +. p else phase in
          if Iv.mem phase interval then ret subst else Seq.empty
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_tres_apply spec (_ : Database.ctx) subst = function
  | [ r; t; t0 ] -> (
      match (tspace_arg spec subst r, number_arg subst t) with
      | Some res, Some x -> unify_ret subst t0 (Term.float (Res1.apply res x))
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_tres_cell spec (_ : Database.ctx) subst = function
  | [ r; t; iv ] -> (
      match (tspace_arg spec subst r, number_arg subst t) with
      | Some res, Some x ->
          unify_ret subst iv (Gfact.interval_term (Res1.cell_of res x))
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_tres_refines spec (_ : Database.ctx) subst = function
  | [ r2; r1 ] ->
      let candidates t =
        match walk subst t with
        | Term.Atom name -> (
            match Spec.find_tspace spec name with Some r -> [ r ] | None -> [])
        | Term.Var _ -> List.rev spec.Spec.tspaces
        | _ -> []
      in
      List.to_seq (candidates r2)
      |> Seq.concat_map (fun (fine : Res1.t) ->
             List.to_seq (candidates r1)
             |> Seq.filter_map (fun (coarse : Res1.t) ->
                    if
                      (not (String.equal fine.Res1.name coarse.Res1.name))
                      && Res1.refines ~fine ~coarse
                    then
                      match Unify.unify subst r2 (Term.atom fine.Res1.name) with
                      | None -> None
                      | Some s -> (
                          match Unify.unify s r1 (Term.atom coarse.Res1.name) with
                          | Some s' -> Some s'
                          | None -> None)
                    else None))
  | _ -> Seq.empty

let bi_time_now spec (_ : Database.ctx) subst = function
  | [ t ] ->
      unify_ret subst t (Term.float (Gdp_temporal.Clock.now spec.Spec.clock))
  | _ -> Seq.empty

let time_test f spec (_ : Database.ctx) subst = function
  | [ t ] -> (
      match number_arg subst t with
      | Some x -> if f spec.Spec.clock x then ret subst else Seq.empty
      | None -> Seq.empty)
  | _ -> Seq.empty

(* ---------- domains and fuzziness ---------- *)

let bi_domain_contains spec (_ : Database.ctx) subst = function
  | [ d; v ] -> (
      match walk subst d with
      | Term.Atom dname -> (
          match Sd.Registry.find spec.Spec.domains dname with
          | None -> Seq.empty
          | Some dom -> (
              match walk subst v with
              | Term.Var _ -> (
                  match dom.Sd.enumerate with
                  | Some values ->
                      List.to_seq values
                      |> Seq.filter_map (fun value -> Unify.unify subst v value)
                  | None -> Seq.empty)
              | value ->
                  if Sd.contains dom (Subst.apply subst value) then ret subst
                  else Seq.empty))
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_domain_op spec (_ : Database.ctx) subst = function
  | [ d; op; args; result ] -> (
      match (walk subst d, walk subst op, Term.as_list (Subst.apply subst args)) with
      | Term.Atom dname, Term.Atom opname, Some arg_list -> (
          match Sd.Registry.find spec.Spec.domains dname with
          | None -> Seq.empty
          | Some dom -> (
              match Sd.apply_operation dom opname arg_list with
              | Some value -> unify_ret subst result value
              | None -> Seq.empty))
      | _ -> Seq.empty)
  | _ -> Seq.empty

let truth_arg subst t =
  match number_arg subst t with
  | Some f when f >= 0.0 && f <= 1.0 -> Some (Gdp_fuzzy.Truth.v f)
  | _ -> None

let bi_fz_binop op spec (_ : Database.ctx) subst = function
  | [ a; b; c ] -> (
      match (truth_arg subst a, truth_arg subst b) with
      | Some x, Some y ->
          unify_ret subst c
            (Term.float (Gdp_fuzzy.Truth.to_float (op spec.Spec.fuzzy_family x y)))
      | _ -> Seq.empty)
  | _ -> Seq.empty

let bi_fz_not (_spec : Spec.t) (_ : Database.ctx) subst = function
  | [ a; b ] -> (
      match truth_arg subst a with
      | Some x ->
          unify_ret subst b
            (Term.float (Gdp_fuzzy.Truth.to_float (Gdp_fuzzy.Algebra.neg x)))
      | None -> Seq.empty)
  | _ -> Seq.empty

(* ---------- uncertainty propagation (§VII-F) ---------- *)

type ac_atom = Holds of Term.t | Goal of Term.t

let reify_formula ~default_model f =
  let rec go = function
    | Formula.Atom p -> Term.app "fatom" [ Gfact.to_holds ~default_model p ]
    | Formula.Acc (p, a) ->
        Term.app "ftest" [ Gfact.to_acc_max ~default_model p a ]
    | Formula.Test t -> Term.app "ftest" [ t ]
    | Formula.And (a, b) -> Term.app "fand" [ go a; go b ]
    | Formula.Or (a, b) -> Term.app "for" [ go a; go b ]
    | Formula.Forall (g, c) -> Term.app "fall" [ go g; go c ]
    | Formula.Not a -> Term.app "fnot" [ go a ]
  in
  go f

(* Build the instantiated Propagate tree by proving quantifier guards and
   negations under the current substitution, then evaluate with the
   accuracy oracle. *)
let bi_ac_eval spec (ctx : Database.ctx) subst = function
  | [ formula; out ] -> (
      let prove = ctx.Database.prove in
      let acc_var = Term.var "_AC" in
      let rec build s ft =
        match walk s ft with
        | Term.App ("fatom", [ h ]) ->
            Some (Gdp_fuzzy.Propagate.Atom (Holds (Subst.apply s h)))
        | Term.App ("ftest", [ g ]) ->
            Some (Gdp_fuzzy.Propagate.Atom (Goal (Subst.apply s g)))
        | Term.App ("fand", [ a; b ]) -> (
            match (build s a, build s b) with
            | Some x, Some y -> Some (Gdp_fuzzy.Propagate.And (x, y))
            | _ -> None)
        | Term.App ("for", [ a; b ]) -> (
            match (build s a, build s b) with
            | Some x, Some y -> Some (Gdp_fuzzy.Propagate.Or (x, y))
            | _ -> None)
        | Term.App ("fall", [ g; c ]) ->
            let guard_goal = goal_of s g in
            let instances =
              prove s guard_goal
              |> Seq.filter_map (fun s' ->
                     match (build s' g, build s' c) with
                     | Some gi, Some ci -> Some (gi, ci)
                     | _ -> None)
              |> List.of_seq
            in
            Some
              (Gdp_fuzzy.Propagate.Forall
                 (Gdp_fuzzy.Propagate.Atom (Goal (Term.atom "true")), instances))
        | Term.App ("fnot", [ g ]) ->
            let provable =
              match Seq.uncons (prove s (goal_of s g)) with
              | Some _ -> true
              | None -> false
            in
            Some
              (Gdp_fuzzy.Propagate.Not_provable
                 (Gdp_fuzzy.Propagate.Atom (Goal (Term.atom "true")), provable))
        | _ -> None
      (* the provability goal corresponding to a reified subformula *)
      and goal_of s ft =
        match walk s ft with
        | Term.App ("fatom", [ h ]) -> h
        | Term.App ("ftest", [ g ]) -> g
        | Term.App ("fand", [ a; b ]) -> Term.app "," [ goal_of s a; goal_of s b ]
        | Term.App ("for", [ a; b ]) -> Term.app ";" [ goal_of s a; goal_of s b ]
        | Term.App ("fall", [ g; c ]) ->
            Term.app "forall" [ goal_of s g; goal_of s c ]
        | Term.App ("fnot", [ g ]) -> Term.app "\\+" [ goal_of s g ]
        | other -> other
      in
      let oracle = function
        | Goal (Term.Atom "true") -> Some Gdp_fuzzy.Truth.absolutely_true
        | Goal g -> (
            match Seq.uncons (prove subst g) with
            | Some _ -> Some Gdp_fuzzy.Truth.absolutely_true
            | None -> None)
        | Holds h -> (
            (* highest accuracy assigned to this exact fact; absolutely
               true when the fact holds without any accuracy statement *)
            let acc_goal =
              match h with
              | Term.App (hf, [ m; q; vs; os; s; t ])
                when String.equal hf Names.holds ->
                  Some (Term.app Names.acc [ m; q; vs; os; s; t; acc_var ])
              | _ -> None
            in
            let accs =
              match acc_goal with
              | None -> []
              | Some g ->
                  prove subst g
                  |> Seq.filter_map (fun s' ->
                         match Subst.apply s' acc_var with
                         | Term.Float f when f >= 0.0 && f <= 1.0 -> Some f
                         | Term.Int n when n >= 0 && n <= 1 ->
                             Some (float_of_int n)
                         | _ -> None)
                  |> List.of_seq
            in
            match accs with
            | _ :: _ -> Some (Gdp_fuzzy.Truth.v (List.fold_left Float.max 0.0 accs))
            | [] -> (
                match Seq.uncons (prove subst h) with
                | Some _ -> Some Gdp_fuzzy.Truth.absolutely_true
                | None -> None))
      in
      match build subst formula with
      | None -> Seq.empty
      | Some tree -> (
          match
            Gdp_fuzzy.Propagate.ac ~family:spec.Spec.fuzzy_family oracle tree
          with
          | None -> Seq.empty
          | Some a ->
              unify_ret subst out (Term.float (Gdp_fuzzy.Truth.to_float a))))
  | _ -> Seq.empty

let install spec db =
  let reg name arity fn = Database.register_builtin db (name, arity) (fn spec) in
  reg "pt_dist" 3 bi_pt_dist;
  reg "pt_direction" 3 bi_pt_direction;
  reg "res_apply" 3 bi_res_apply;
  reg "res_same_cell" 3 bi_res_same_cell;
  reg "res_refines" 2 bi_res_refines;
  reg "res_subcells" 4 bi_res_subcells;
  reg "res_canon" 3 bi_res_canon;
  reg "res_subcell_member" 4 bi_res_subcell_member;
  reg "region_mem" 2 bi_region_mem;
  reg "region_reps" 3 bi_region_reps;
  reg "iv_mem" 2 bi_iv_mem;
  reg "iv_subset" 2 bi_iv_subset;
  reg "iv_before" 2 bi_iv_before;
  reg "iv_make" 3 bi_iv_make;
  reg "cyc_mem" 3 bi_cyc_mem;
  reg "tres_apply" 3 bi_tres_apply;
  reg "tres_cell" 3 bi_tres_cell;
  reg "tres_refines" 2 bi_tres_refines;
  reg "time_now" 1 bi_time_now;
  reg "time_past" 1 (time_test Gdp_temporal.Clock.past);
  reg "time_present" 1 (time_test Gdp_temporal.Clock.present);
  reg "time_future" 1 (time_test Gdp_temporal.Clock.future);
  reg "domain_contains" 2 bi_domain_contains;
  reg "domain_op" 4 bi_domain_op;
  reg "fz_and" 3 (bi_fz_binop Gdp_fuzzy.Algebra.conj);
  reg "fz_or" 3 (bi_fz_binop Gdp_fuzzy.Algebra.disj);
  reg "fz_not" 2 bi_fz_not;
  reg "ac_eval" 2 bi_ac_eval
