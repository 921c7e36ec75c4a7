open Ast

type t = {
  ix_vars : (string, var_decl) Hashtbl.t;
  ix_signals : (string, sig_decl) Hashtbl.t;
  ix_procs : (string, proc_decl) Hashtbl.t;
  ix_behaviors : (string, behavior) Hashtbl.t;
  ix_servers : (string, string) Hashtbl.t;
}

let add_first tbl key x =
  if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key x

let table name items =
  let tbl = Hashtbl.create (max 16 (List.length items)) in
  List.iter (fun x -> add_first tbl (name x) x) items;
  tbl

let of_program p =
  let behaviors = Hashtbl.create 64 in
  Behavior.fold (fun () b -> add_first behaviors b.b_name b) () p.p_top;
  {
    ix_vars = table (fun v -> v.v_name) p.p_vars;
    ix_signals = table (fun s -> s.s_name) p.p_signals;
    ix_procs = table (fun pr -> pr.prc_name) p.p_procs;
    ix_behaviors = behaviors;
    ix_servers = table Fun.id p.p_servers;
  }

let var ix x = Hashtbl.find_opt ix.ix_vars x
let signal ix x = Hashtbl.find_opt ix.ix_signals x
let proc ix x = Hashtbl.find_opt ix.ix_procs x
let behavior ix x = Hashtbl.find_opt ix.ix_behaviors x
let is_var ix x = Hashtbl.mem ix.ix_vars x
let is_signal ix x = Hashtbl.mem ix.ix_signals x
let is_server ix x = Hashtbl.mem ix.ix_servers x

let globals p ~var ~signal =
  Scope.of_list
    (List.map (fun v -> (v.v_name, var v)) p.p_vars
    @ List.map (fun s -> (s.s_name, signal s)) p.p_signals)
