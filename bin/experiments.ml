(* Experiment runner: regenerates every table of EXPERIMENTS.md.

   Usage:
     dune exec bin/experiments.exe            # run everything
     dune exec bin/experiments.exe -- e4 e8   # run a subset
     dune exec bin/experiments.exe -- --list

   Exits 1 when an id is unknown or any verdict is a MISMATCH. *)

let list_experiments () =
  List.iter (fun (id, _) -> print_endline id) Ihnet_experiments.Registry.all

let save_csvs out_dir (r : Ihnet_experiments.Common.result) =
  match out_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iteri
      (fun i table ->
        let path =
          Filename.concat dir
            (Printf.sprintf "%s%s.csv" (String.lowercase_ascii r.Ihnet_experiments.Common.id)
               (if i = 0 then "" else Printf.sprintf "-%d" (i + 1)))
        in
        let oc = open_out path in
        output_string oc (Ihnet_util.Table.to_csv table);
        close_out oc)
      r.Ihnet_experiments.Common.tables

let run_ids out_dir ids =
  let unknown = ref false in
  let results =
    List.filter_map
      (fun id ->
        match Ihnet_experiments.Registry.find id with
        | Some run ->
          let r = run () in
          Ihnet_experiments.Common.print_result r;
          save_csvs out_dir r;
          Some r
        | None ->
          Printf.eprintf "unknown experiment %S (use --list)\n" id;
          unknown := true;
          None)
      ids
  in
  if !unknown then exit 1;
  results

open Cmdliner

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (E1..E16, A1..A3); all when omitted.")

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Also write each table as CSV into DIR.")

let main list_flag out_dir ids =
  if list_flag then list_experiments ()
  else begin
    let results =
      if ids = [] then begin
        let results = Ihnet_experiments.Registry.run_all () in
        List.iter (save_csvs out_dir) results;
        results
      end
      else run_ids out_dir ids
    in
    if not (List.for_all Ihnet_experiments.Registry.reproduced results) then exit 1
  end

let cmd =
  let doc = "regenerate the ihnet paper-reproduction experiment tables" in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const main $ list_arg $ out_arg $ ids_arg)

let () = exit (Cmd.eval cmd)
