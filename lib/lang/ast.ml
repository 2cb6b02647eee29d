type position = { line : int; col : int }

type expr =
  | E_atom of string
  | E_var of string
  | E_int of int
  | E_float of float
  | E_str of string
  | E_app of string * expr list

type spatial =
  | Sq_none
  | Sq_at of expr list
  | Sq_uniform of string * expr list
  | Sq_sampled of string * expr list
  | Sq_averaged of string * expr list

type bound_expr = B_num of float | B_now of float | B_inf | B_var of string

type interval_expr = {
  lower : bound_expr;
  lower_closed : bool;
  upper : bound_expr;
  upper_closed : bool;
}

type temporal =
  | Tq_none
  | Tq_at of expr
  | Tq_uniform of interval_expr
  | Tq_sampled of interval_expr
  | Tq_averaged of interval_expr
  | Tq_resolution of string * string * float
      (** [&u[years] 1975] — kind ("u"/"s"/"a"), named temporal
          resolution, instant: the §VI-A resolution form, elaborated to
          the containing logical-time cell *)
  | Tq_cyclic of float * interval_expr
      (** [&c[period] interval] — true during the phase interval of every
          period (the cyclic extension §VI-B mentions) *)
  | Tq_var of string

type fact_atom = {
  fa_model : string option;
  fa_pred : string;
  fa_values : expr list;
  fa_objects : expr list;
  fa_space : spatial;
  fa_time : temporal;
  fa_pos : position;
}

type body =
  | B_atom of fact_atom
  | B_acc of fact_atom * expr
  | B_test of expr
  | B_and of body * body
  | B_or of body * body
  | B_forall of body * body
  | B_not of body

type domain_def =
  | D_enum of string list
  | D_int_range of int * int
  | D_real_range of float * float
  | D_number
  | D_text
  | D_any

type statement =
  | S_coordinate of string * int option
  | S_clock of float
  | S_fuzzy of string
  | S_domain of string * domain_def
  | S_objects of (string * position) list
  | S_predicate of string * string list * int
  | S_space of { name : string; dx : float; dy : float; ox : float; oy : float }
  | S_timespace of { name : string; step : float; origin : float }
  | S_region of string * region_def
  | S_model of string
  | S_fact of fact_atom
  | S_acc_fact of fact_atom * float
  | S_rule of {
      r_accuracy : expr option;
      r_head : fact_atom;
      r_body : body;
      r_pos : position;
    }
  | S_constraint of {
      c_tag : string;
      c_args : expr list;
      c_body : body;
      c_model : string option;
      c_pos : position;
    }
  | S_metamodel of { mm_name : string; mm_loopcheck : bool; mm_clauses : string }
  | S_include of string
      (** [include "file.gdp".] — splice another specification file *)
  | S_use of string list
  | S_view of { v_name : string; v_models : string list; v_metas : string list }

and region_def =
  | R_rect of float * float * float * float
  | R_circle of float * float * float
  | R_poly of (float * float) list

type program = statement list

let pp_position ppf { line; col } = Format.fprintf ppf "%d:%d" line col
