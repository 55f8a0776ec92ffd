(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's per-experiment index and
   EXPERIMENTS.md for paper-vs-measured).

   Usage:
     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe fig8_1 ... # run selected experiments
     dune exec bench/main.exe --list     # list experiment names

   An unknown experiment name exits 2 before anything runs. *)

let experiments =
  [
    ("fig2_4", "x264 execution time / throughput / response vs load + DoP oracle", Exp_api.fig2_4);
    ("tab6_1", "mechanism implementation sizes", Exp_api.tab6_1);
    ("fig8_1", "video transcoding response time vs load", Exp_api.fig8_1);
    ("fig8_2", "option pricing response time vs load", Exp_api.fig8_2);
    ("fig8_3", "data compression response time vs load", Exp_api.fig8_3);
    ("fig8_4", "image editing response time vs load", Exp_api.fig8_4);
    ("fig8_5", "image search response time vs load", Exp_api.fig8_5);
    ("tab8_5", "throughput improvements (ferret, dedup)", Exp_api.tab8_5);
    ("fig8_6", "ferret throughput timeline under TBF", Exp_api.fig8_6);
    ("fig8_7", "ferret power/throughput under TPC", Exp_api.fig8_7);
    ("fig8_8", "run-time controller adaptation (workload/scheme/resources)", Exp_nona.fig8_8);
    ("fig8_9", "platform-wide optimization of two programs", Exp_nona.fig8_9);
    ("tab8_6", "Nona kernel speedups", Exp_nona.tab8_6);
    ("tab_overheads", "Morta/Decima overheads (Section 8.3.6)", Exp_nona.tab_overheads);
    ("tab_platforms", "controller speedups on both Table 8.1 platforms", Exp_nona.tab_platforms);
    ("tab7_ablation", "Chapter 7 overhead-optimization ablations", Exp_nona.tab7_ablation);
    ("microbench", "host-time micro-benchmarks of runtime primitives", Microbench.run);
    ("allocs", "minor words per request on the serve path -> BENCH_alloc.json", Exp_allocs.run);
    ("native_speedup", "native-backend pipeline wall-clock speedup vs DoP", Exp_native.native_speedup);
    ("headline", "headline simulated numbers -> BENCH_sim.json", Exp_native.sim_headline);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--list" ] ->
      List.iter (fun (name, desc, _) -> Printf.printf "%-16s %s\n" name desc) experiments
  | [] ->
      List.iter
        (fun (name, desc, f) ->
          Printf.printf "\n### %s | %s\n\n%!" name desc;
          let t0 = Sys.time () in
          f ();
          Printf.printf "[%s finished in %.1fs cpu]\n%!" name (Sys.time () -. t0))
        experiments
  | names ->
      let find n = List.find_opt (fun (name, _, _) -> name = n) experiments in
      List.iter
        (fun n ->
          if Option.is_none (find n) then begin
            Printf.eprintf "unknown experiment %S (try --list)\n" n;
            exit 2
          end)
        names;
      List.iter
        (fun n ->
          let name, desc, f = Option.get (find n) in
          Printf.printf "\n### %s | %s\n\n%!" name desc;
          f ())
        names
