(** Static validation of a specification — the requirements-review aid the
    paper motivates: explicit world knowledge "is expected to reduce the
    occurrence of inconsistencies in the requirements specification"
    (§III). The linter finds the mistakes the type-level checks cannot:
    names that are declared but never used, used but never declared, and
    rules that can never fire.

    The checks are heuristic in one documented way: a meta-model can
    realise facts for otherwise-undefined predicates (e.g. [cwa] deriving
    truth-valued facts), so "undefined predicate" findings are warnings,
    not errors. *)

type severity = Error | Warning | Info

type finding = {
  severity : severity;
  code : string;  (** stable kebab-case identifier, e.g. "undeclared-object" *)
  message : string;
  context : string;  (** model or rule the finding anchors to, "" if global *)
}

val lint : Spec.t -> finding list
(** All findings, errors first, deterministic order. Performed checks:

    - [undeclared-object] (Warning): a fact references an object-position
      atom that was never declared (only when at least one object is
      declared — specifications may choose not to declare objects at all);
    - [unused-object] (Info): declared but never referenced in any model;
    - [undeclared-predicate] (Info): a predicate is used while other
      predicates have signatures — likely a missing declaration or typo;
    - [unknown-space] (Error): a spatial qualifier or a
      [res_*]/[region_reps] test references an undeclared logical space;
    - [unknown-region] (Error): a [region_mem]/[region_reps] test
      references an undeclared region;
    - [undefined-predicate] (Warning): a rule or constraint body uses a
      predicate with no basic facts and no defining rule in any model;
    - [unused-domain] (Info): a declared semantic domain appears in no
      predicate signature;
    - [empty-model] (Info): a declared model carries no facts, rules or
      constraints;
    - [accuracy-without-fact] (Info): an accuracy statement qualifies a
      fact never asserted plainly — §VII-C notes the usual pattern is
      that "each fact for which an accuracy is specified also exists
      without any accuracy";
    - [constraint-violation] (Warning): the specification declares
      constraints and its default world view lies in the bottom-up
      Datalog fragment, and materialising it derives an [ERROR] fact —
      the inconsistency itself, found by exhaustive sweep rather than
      static inspection. Specifications outside the fragment skip this
      check silently (run [gdprs check --materialize] for the hard
      error). *)

val has_errors : finding list -> bool
val pp_finding : Format.formatter -> finding -> unit
