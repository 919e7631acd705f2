(** Textual serialization of [QO_N] instances.

    A simple line-oriented format so instances can be saved, shared and
    fed back through the CLI:

    {v
    qon 1                      # header, version
    n 4
    size 0 1000                # relation sizes (rational or 2^x)
    edge 0 1 sel 1/100 wij 10 wji 1000
    ...
    v}

    Rational instances serialize exactly; log-domain instances
    serialize their exponents ([2^x] syntax) with float precision. *)

val max_parse_n : int
(** Hard cap on the declared relation count (1024): [n] is validated
    against it before any [n]-sized allocation, so a hostile "n
    99999999999" fails with a line-numbered parse error instead of an
    [Array.make] crash or an OOM kill. *)

val dump_rat : Instances.Nl_rat.t -> string
(** The canonical text of an instance: the header, [n], one [size]
    line per relation in order, one [edge i j] line per edge with
    [i < j] in lexicographic order, every scalar in lowest terms. It is
    the reference for {!parse_rat_canonical}'s text and the basis of
    serve's cache key. *)

val parse_rat_canonical : string -> Instances.Nl_rat.t * string
(** [parse_rat_canonical text] is the instance and its canonical text,
    byte-equal to [dump_rat] of that instance, from one lexer pass: a
    scalar already written canonically (an integer of at most 18 digits
    with no sign, leading zero or [_], or such an [a/b] with [b > 1] and
    [gcd a b = 1]) is read in native ints and copied through; any other
    goes through [Bigq] and [dump_rat]'s printer.

    Only [' '] separates tokens; lines are trimmed as by [String.trim].
    Integers are read as by [int_of_string_opt] ([0x], [_] and [+]
    accepted), rationals as by [Bigq.of_string] plus the literal
    ["inf"]. Errors come in this order: the first line-level error in
    line order (within a line, the rightmost bad token: scalars before
    integers), then the missing-[n] and header checks, the size lines,
    the edge lines, and last [Nl.make]'s constraints.
    @raise Invalid_argument on malformed input (including instances
    violating the access-path constraints — re-validated on load), and
    on a scalar with a zero denominator. *)

val parse_rat : string -> Instances.Nl_rat.t
(** [fst (parse_rat_canonical text)]. *)

val dump_log : Instances.Nl_log.t -> string
(** As {!dump_rat}; scalars are written [2^x] with [x] in ["%.17g"]. *)

val parse_log_canonical : string -> Instances.Nl_log.t * string
(** As {!parse_rat_canonical}. Scalars are ["2^<float>"] or plain
    positive floats as read by [float_of_string]; non-finite ones are
    rejected. Every scalar's canonical text is its ["%.17g"] rendering,
    made in the same pass. *)

val parse_log : string -> Instances.Nl_log.t
(** [fst (parse_log_canonical text)]. *)

val save_rat : string -> Instances.Nl_rat.t -> unit
val load_rat : string -> Instances.Nl_rat.t
val save_log : string -> Instances.Nl_log.t -> unit
val load_log : string -> Instances.Nl_log.t
