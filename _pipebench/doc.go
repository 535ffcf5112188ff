// Command pipebench is the repository's whole-pipeline benchmark. It
// times the paper's CART pipeline end to end — generated inputs in,
// checked outputs out — on four workloads, and in a separate traced run
// records a span around every call it makes into a layer's public
// function, so each layer's share of a workload can be read next to the
// end-to-end figure.
//
// Run from the repository root:
//
//	bash _pipebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this module into .bench_build/ and runs it. The last line
// of standard output is the result: {"correct", "attempted", "failed",
// "metrics"}; the line before it is a report with the machine (NumCPU,
// GOMAXPROCS, kernel tier, Go version, CPU model), the fixture's shape,
// the workload's named figures and the output checks. A failed output
// check exits 1. Traced runs write their spans, with per-name total and
// self times, to .bench_build/pipebench-out/spans-<workload>-seed<n>.json.
//
// The directory is a module of its own (its go.mod replaces hddcart with
// the parent directory), and its leading underscore keeps it out of the
// root module's ./... patterns and the repository linter's walk.
//
// # Fixture
//
// Every workload builds its fleet from internal/simulate with the seed
// argument: the paper's 13 critical features, its failed-drive share and
// distinct rows, with drive traces generated on NumCPU goroutines and cut
// down at once to the hours the workload replays. The CT (LossFA 10) and
// RT are trained as `hddpred train` trains them, the 48-tree forest with
// MaxBins 255, all in set-up. Set-up runs three times per run and
// setup_s is the median.
//
// # Workloads
//
//	evaluate      `hddpred evaluate`'s default path over native-trace CSV
//	              bytes in memory: parse → train/test split →
//	              ExtractSeries → ScanBatch with the compiled CT (voting,
//	              N = 11), RT (mean, −0.3) and forest → FAR/FDR/TIA.
//	              1,290 drives (5% of the paper's fleet); good drives keep
//	              hours 93–167, failed drives their 480 h. Parsing is most
//	              of a pass, so this workload shows parse and I/O gains and
//	              should not move when scoring kernels change.
//	fleet-scan    the periodic whole-fleet scan: each drive's most recent
//	              week → ExtractSeries (NumCPU goroutines) →
//	              BinFeatureMatrix on the fleet's rows → QuantizeFleet →
//	              CompileModelBinned → ScanBatchBinned for CT, RT and
//	              forest. ≈ 5,050 drives, above detect.SweepDelegateMin, so
//	              the scan goes through the sweep delegation. Passes at
//	              workers = NumCPU fill the budget, then one pass runs at
//	              workers = 1.
//	serve-direct  an in-process serve.Server with a CT monitor replays 128
//	              hourly ticks of ≈ 6,100 drives. Each tick is a closed
//	              loop: Ingest every drive from NumCPU producers (retrying
//	              on Rejected), Drain, Warnings. An untimed replay warms
//	              the heap first; then one replay runs per 2 s of budget,
//	              each with one SnapshotNow (64 ticks after the 24 warm-up
//	              ticks), and the last one's final snapshot is restored
//	              through serve.New.
//	serve-http    the same service behind Handler() on a loopback
//	              http.Server. After 24 warm-up ticks ingested directly, a
//	              generator in the process posts 64-line JSONL batches
//	              over one connection, tick by tick, in four rounds of a
//	              closed loop (at most 25% of the round and 30% of the
//	              lines) then an open loop at 32,000 records/s (about half
//	              the one-connection closed-loop capacity on a 2-core
//	              Xeon), timed from each POST's due time. The lines last
//	              about 17 s; a longer budget ends the last round early.
//	              Three faultinject injectors JSON can carry (duplicate,
//	              reorder, out-of-range values) each fault 0.5% of records.
//
// # End-to-end metrics (untraced run)
//
// Every workload reports every metric; the headline pair is its own:
//
//	metric            evaluate         fleet-scan          serve-direct    serve-http
//	throughput_per_s  records/s        samples/s, NumCPU   records/s       closed-loop records/s
//	p50_ms            pass             pass, NumCPU        tick            open-loop POST
//
// Throughput is the median pass's rate on evaluate and fleet-scan and
// the median tick's on serve-direct, so a slow spell of a shared host
// during a few passes moves neither figure; on serve-http it is the
// records of the four closed-loop rounds over their time.
//
//	setup_s           median of three set-ups, every workload
//	peak_rss_mb       peak resident set of the measured phase, every workload
//
// The report line adds each workload's named figures, and host_loop_ms,
// the time of a fixed arithmetic loop before and after the measurement,
// which shows how fast the host ran at the time:
// evaluate_records_per_s; scan_samples_per_s and scan_1w_samples_per_s;
// tick_p50_ms, tick_p90_ms, snapshot_pause_ms and restore_ms; post_p50_ms,
// post_p99_ms and http_records_per_s.
//
// # Per-layer metrics (traced run) and what they should move
//
// A traced run measures half its budget untraced and half traced;
// bench.trace_overhead is the untraced throughput over the traced one,
// minus 1. Every workload reports every metric; a layer it does not call
// reports 0.
//
//	trace.parse_s, trace.records_per_s,
//	trace.alloc_bytes_per_record               → throughput_per_s on evaluate
//	detect.extract_s, detect.extract_samples   → throughput_per_s on fleet-scan; evaluate a little
//	dataset.bin_s, dataset.quantize_s, cart.compile_s,
//	detect.scan_{ct,rt,forest}_s, detect.alarms,
//	detect.scan_direct_s (ScanBatchBinnedDirect, the three models
//	together, on the same codes at workers = NumCPU)
//	                                           → throughput_per_s and scan_1w_samples_per_s on fleet-scan
//	sweep.prepare_s, sweep.run_s, sweep.shard_skew, sweep.steals,
//	sweep.nan_excluded (explicit Prepare + Run on the same codes)
//	                                           → fleet-scan scan figures
//	dataset.build_s, cart.train_ct_s, cart.train_rt_s,
//	forest.train_s                             → setup_s on every workload
//	hddcart.observe_ns (one Monitor fed the same streams),
//	hddcart.scored_frac, hddcart.repaired, hddcart.dropped,
//	smart.extract_ns, cart.predict_ns          → p50_ms on serve-direct; serve-http a little
//	serve.ingest_ns, serve.retries, serve.drain_ms,
//	serve.warnings_ms, serve.shard_skew        → tick_p50_ms and tick_p90_ms on serve-direct
//	serve.snapshot_bytes_per_drive,
//	serve.snapshot_ms                          → snapshot_pause_ms; serve.restore_ms → restore_ms
//	http.handler_ms, http.transport_ms, http.status_429,
//	http.parse_errors, bench.generator_lag_ms  → p50_ms, post_p99_ms and throughput_per_s on serve-http
//	runtime.alloc_bytes_per_item, runtime.gc_cycles,
//	runtime.gc_pause_ms, bench.trace_overhead  → every workload's throughput and peak_rss_mb
//
// # Output checks
//
// Outside every timed region: evaluate's FAR/FDR/TIA must equal the
// pointer-model oracle (hddcart.Scan on the uncompiled tree and forest);
// fleet-scan's outcomes must equal the oracle wherever the binned model
// is Exact, and ScanBatchBinnedDirect's otherwise, with the oracle
// disagreements reported; the serve workloads' warnings must equal one
// hddcart.Monitor replaying the same streams serially, and accepted +
// rejected + parse errors must equal the records sent.
package main
