(** Race detector.

    A {e variable} race is a declaration accessed from two different
    children of one parallel composition with at least one writer: the
    interleaving of immediate assignments is unconstrained, so the
    observable behavior depends on scheduling.  A {e signal} race needs
    two concurrent {e drivers} — concurrent signal reads are
    deterministic under delta-delay semantics, but the last driver in a
    delta wins.

    Accesses mediated by a protocol procedure do not count: [Call]
    arguments are read at the call site, but reads and writes inside the
    procedure body belong to the protocol (serialized by its handshake),
    which is exactly the mediation refinement introduces.  Subtrees
    registered as perpetual servers (memories, arbiters, bus interfaces)
    are exempt for the same reason: they are protocol endpoints whose
    accesses are serialized by the request/acknowledge wires.

    Severity follows the phase: a race in an unpartitioned input is what
    refinement will serialize (warning); the same race in refined output
    is a broken refinement (error). *)

open Spec
open Ast

let codes =
  [
    ("RACE001",
     "variable accessed from two parallel branches with at least one \
      writer and no mediating protocol");
    ("RACE002", "signal driven from two parallel branches");
    ("RACE003",
     "racy access whose outcome changes under relaxed port ordering \
      (litmus evidence)");
  ]

(* Accesses of the non-server sites under one child subtree: for
   readers, writers and signal drivers, the first site (preorder) to make
   each access, as (decl key -> (display name, behavior)) and (signal ->
   behavior) tables, plus the keys and signals seen.  With a flow
   summary, a leaf site contributes only the accesses at CFG nodes the
   interval analysis proves reachable — two accesses race only when both
   can actually execute; TOC guard reads are kept as-is. *)
type accesses = {
  ac_reads : (string, string * string) Hashtbl.t;
  ac_writes : (string, string * string) Hashtbl.t;
  ac_keys : string list;  (** read or written, each once *)
  ac_drives : (string, string) Hashtbl.t;
  ac_signals : string list;  (** driven, each once *)
}

let child_accesses ?flow sites =
  let accesses (s : Pass.site) =
    match flow with
    | Some fl when s.Pass.st_stmts <> [] -> (
      match Flow.leaf_at fl s.Pass.st_path with
      | Some li ->
        (li.Flow.li_var_reads, li.Flow.li_var_writes, li.Flow.li_sig_writes)
      | None -> (s.Pass.st_var_reads, s.Pass.st_var_writes, s.Pass.st_sig_writes))
    | _ -> (s.Pass.st_var_reads, s.Pass.st_var_writes, s.Pass.st_sig_writes)
  in
  let a =
    { ac_reads = Hashtbl.create 16; ac_writes = Hashtbl.create 16;
      ac_keys = []; ac_drives = Hashtbl.create 8; ac_signals = [] }
  in
  List.fold_left
    (fun a (s : Pass.site) ->
      let reads, writes, drives = accesses s in
      let b = s.Pass.st_behavior in
      let note tbl a (key, name) =
        if Hashtbl.mem tbl key then a
        else begin
          Hashtbl.add tbl key (name, b);
          if Hashtbl.mem a.ac_reads key && Hashtbl.mem a.ac_writes key then a
          else { a with ac_keys = key :: a.ac_keys }
        end
      in
      let a = List.fold_left (note a.ac_reads) a reads in
      let a = List.fold_left (note a.ac_writes) a writes in
      List.fold_left
        (fun a x ->
          if Hashtbl.mem a.ac_drives x then a
          else begin
            Hashtbl.add a.ac_drives x b;
            { a with ac_signals = x :: a.ac_signals }
          end)
        a drives)
    a sites

(* The non-server sites under every behavior, preorder: a site belongs to
   each behavior on its path. *)
let sites_by_ancestor sites =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Pass.site) ->
      if not s.Pass.st_server then
        List.iter
          (fun b -> Hashtbl.add tbl b s)
          (List.sort_uniq String.compare s.Pass.st_path))
    (List.rev sites);
  tbl

(* The children touching each name (in child order), and the names two or
   more children touch, sorted. *)
let shared per_child names_of =
  let tbl = Hashtbl.create 64 and shared = ref [] in
  List.iter
    (fun (c, a) ->
      List.iter
        (fun x ->
          match Hashtbl.find_opt tbl x with
          | None -> Hashtbl.add tbl x (ref [ (c, a) ])
          | Some cs ->
            if List.compare_length_with !cs 1 = 0 then shared := x :: !shared;
            cs := (c, a) :: !cs)
        (names_of a))
    per_child;
  ( (fun x -> List.rev !(Hashtbl.find tbl x)),
    List.sort_uniq String.compare !shared )

let run (ctx : Pass.t) =
  let severity = Pass.severity_for_phase ctx.Pass.lc_phase in
  let by_ancestor = lazy (sites_by_ancestor ctx.Pass.lc_sites) in
  Behavior.fold
    (fun acc b ->
      match b.b_body with
      | Par children when List.length children >= 2 ->
        let by_ancestor = Lazy.force by_ancestor in
        let per_child =
          List.map
            (fun c ->
              ( c.b_name,
                child_accesses ?flow:ctx.Pass.lc_flow
                  (Hashtbl.find_all by_ancestor c.b_name) ))
            children
        in
        (* Variable races: a writer in one child, any accessor in
           another.  Only keys accessed from two or more children can
           race. *)
        let accessors, keys = shared per_child (fun a -> a.ac_keys) in
        let acc =
          List.fold_left
            (fun acc key ->
              let accessors = accessors key in
              let writers =
                List.filter
                  (fun (_, a) -> Hashtbl.mem a.ac_writes key)
                  accessors
              in
              match (writers, accessors) with
              | (wc, w) :: _, _ :: _ :: _ ->
                let name, writer_leaf = Hashtbl.find w.ac_writes key in
                let other =
                  List.find_map
                    (fun (c, a) ->
                      if String.equal c wc then None
                      else
                        match
                          ( Hashtbl.find_opt a.ac_reads key,
                            Hashtbl.find_opt a.ac_writes key )
                        with
                        | Some (_, leaf), _ | None, Some (_, leaf) ->
                          Some (c, leaf)
                        | None, None -> None)
                    accessors
                in
                begin match other with
                | None -> acc  (* all accesses in the writing child *)
                | Some (oc, other_leaf) ->
                  Diagnostic.makef ~code:"RACE001" ~severity ~pass:"race"
                    ~path:[ b.b_name ] ~loc:name
                    "variable %s is written in branch %s (%s) and accessed \
                     in branch %s (%s) of parallel composition %s with no \
                     mediating protocol"
                    name wc writer_leaf oc other_leaf b.b_name
                  :: acc
                end
              | _ -> acc)
            acc keys
        in
        (* Signal races: two concurrent drivers. *)
        let drivers, signals = shared per_child (fun a -> a.ac_signals) in
        List.fold_left
          (fun acc x ->
            match drivers x with
            | (c1, a1) :: (c2, a2) :: _ ->
              Diagnostic.makef ~code:"RACE002" ~severity ~pass:"race"
                ~path:[ b.b_name ] ~loc:x
                "signal %s is driven from branches %s (%s) and %s (%s) of \
                 parallel composition %s"
                x c1 (Hashtbl.find a1.ac_drives x) c2
                (Hashtbl.find a2.ac_drives x) b.b_name
              :: acc
            | _ -> acc)
          acc signals
      | _ -> acc)
    [] ctx.Pass.lc_program.p_top

let pass = { Pass.p_name = "race"; p_codes = codes; p_run = run }
