(* Entry point: parse the command line, run one workload, print its
   report and the result line; exit 1 when any output was wrong.  The
   remote workload re-executes this binary as its worker processes. *)

open Common

let () =
  if Array.length Sys.argv >= 3 && Sys.argv.(1) = "remote-worker" then begin
    Wl_remote.worker_main ~socket:Sys.argv.(2);
    exit 0
  end;
  let args = parse_args Sys.argv in
  let run =
    match args.workload with
    | "pipeline" -> Wl_pipeline.run
    | "analytic" -> Wl_analytic.run
    | "serve" -> Wl_serve.run
    | "remote" -> Wl_remote.run
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\nusage: " ^ usage);
        exit 2
  in
  Volcano_sql.Sql.install ();
  let tmp = Filename.concat args.out "tmp" in
  mkdir_p tmp;
  (* Sockets (launcher and server) live under the output directory, by a
     relative path short enough for sun_path. *)
  Filename.set_temp_dir_name tmp;
  let load_before = load_average () and cpu_before = cpu_times () in
  let result = run args in
  let fingerprint = fingerprint ~commit:args.commit ~load_before ~cpu_before in
  if not (print_result args ~fingerprint result) then exit 1
