(** Execution of one job against the shared {!Session}.

    A job is a JSON object with a ["kind"] — [refine], [lint],
    [explore], [faults] or [litmus] — plus the same knobs the matching
    [mrefine] subcommand exposes.  The specification travels as source
    text in the ["spec"] field (the daemon need not share a filesystem
    view with its clients).  Each job decodes into the {!Command}
    request the CLI builds from its flags and runs the same
    {!Command} function, so the produced report is {e byte-identical}
    to the corresponding cold CLI invocation's output.  What stays here
    is serving: decoding, the session's elaboration cache and the
    memoization of served refinements under ["serve-refine-1"] keys.

    Job field reference (defaults match the CLI; the README maps each
    field to its flag):
    {v
    refine : spec, model, parts, algo, seed, assign, protocol, harden
    lint   : spec, file, severity, codes, phase, overrides, json, flow,
             fix — [fix=true] runs the [mrefine lint --fix] pipeline and
             replies with the JSON fix report: [codes] restricts the
             fixable set (non-fixable codes are an error) and the
             report-only fields (severity, phase, overrides, json, flow)
             are rejected rather than ignored
    explore: spec, models, seeds, biases, parts, steps, jobs, top,
             deadline, retries, json
    faults : spec, model, parts, algo, seed, assign, protocol, harden,
             classes, seeds, base_seed, deadline, ordering, backend, json
    litmus : orderings, shapes, seeds, faults, backend, json
    v} *)

(** A finished job: the report text plus structured facts about it for
    the reply envelope (e.g. lint error counts, sweep coverage). *)
type outcome = Command.outcome = {
  o_output : string;
  o_meta : (string * Protocol.json) list;
  o_failed : bool;  (** the CLI's exit-1 verdict; not part of the reply *)
}

val run :
  session:Session.t ->
  poll:(unit -> bool) ->
  Protocol.json ->
  (outcome, string) result
(** Execute one job.  [poll] is the scheduler's cooperative cancel /
    deadline signal: it is checked between stages of every kind and
    threaded into the simulation kernels of [explore]
    ({!Explore.Evaluate.run}'s [poll]) and [faults]
    ({!Faults.Campaign.config.cf_poll}) jobs, so a cancelled job stops
    mid-simulation.  A cancelled job returns [Error "cancelled"].
    Never raises on malformed job JSON — that is an [Error]. *)

val cancelled_message : string
(** The [Error] payload of a job stopped by its poll. *)
