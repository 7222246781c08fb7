//! The `hbmctl` exit-code contract: 0 for success, 1 for runtime failures
//! (experiment, device or I/O errors), 2 for configuration/usage errors.

use std::process::{Command, Output};

fn hbmctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hbmctl"))
        .args(args)
        .output()
        .expect("spawn hbmctl")
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("hbmctl terminated by signal")
}

fn temp_path(stem: &str) -> String {
    std::env::temp_dir()
        .join(format!("hbmctl-cli-{stem}-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn success_exits_zero() {
    let out = hbmctl(&[
        "sweep", "--from", "900", "--to", "890", "--step", "10", "--words", "8",
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("0.90"), "report printed: {stdout}");
}

#[test]
fn configuration_errors_exit_two_with_usage() {
    for args in [
        vec![],
        vec!["no-such-command"],
        vec!["sweep", "--from", "abc"],
        vec!["sweep", "--from", "-900"],
        vec!["sweep", "--from", "-0.0V"],
        vec!["sweep", "--retries"],
        vec!["reliability", "--exec", "warp"],
        vec!["sweep", "--kernel", "scalar"],
        vec!["sweep", "--wrds", "8"],
        vec!["fleet", "sweep", "--backend", "auto"],
        // There is one fault field, so no flag chooses it.
        vec!["sweep", "--fault-field", "coupled"],
        vec!["guardband", "--format", "xml"],
        vec!["sweep", "--from", "900", "--to", "910", "--step", "10"],
        vec!["governor", "--workload", "warp"],
        vec!["governor", "--latency-budget", "abc"],
        vec!["governor", "--format", "xml"],
        vec![
            "plan",
            "--capacity-gb",
            "4",
            "--tolerance",
            "0.001",
            "--workload",
            "both",
        ],
    ] {
        let out = hbmctl(&args);
        assert_eq!(exit_code(&out), 2, "args {args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
    }
}

/// The default `governor` run is the two-row latency-vs-throughput
/// scenario; the CSV pins the headline result — a tight latency budget
/// stops the descent at a strictly higher voltage than a flip-only
/// throughput descent on the same seed.
#[test]
fn governor_latency_budget_settles_higher_from_the_cli() {
    let out = hbmctl(&["governor", "--format", "csv"]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut lines = stdout.lines();
    let header = lines.next().expect("csv header");
    assert!(
        header.starts_with("scenario,workload,settled_mv"),
        "{header}"
    );
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    assert_eq!(rows[0][1], "throughput", "{stdout}");
    assert_eq!(rows[1][1], "latency", "{stdout}");
    let settled = |row: &[&str]| row[2].parse::<u32>().expect("settled_mv");
    assert!(
        settled(&rows[1]) > settled(&rows[0]),
        "latency row must settle higher: {stdout}"
    );
    assert_eq!(rows[1][5], "latency-budget", "{stdout}");
}

/// A single-workload governor run produces one row under that mode, and
/// the text rendering names the trip.
#[test]
fn single_workload_governor_runs_one_descent() {
    let out = hbmctl(&["governor", "--workload", "throughput"]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("closed-loop governor"), "{stdout}");
    assert!(stdout.contains("throughput"), "{stdout}");
    assert!(!stdout.contains("latency-budget"), "{stdout}");
}

/// `plan` reports the timing axis, and an impossible latency budget is a
/// runtime failure (no swept voltage can meet 1 ns), not a usage error.
#[test]
fn latency_budgeted_plan_reports_the_timing_axis() {
    let out = hbmctl(&[
        "plan",
        "--capacity-gb",
        "4",
        "--tolerance",
        "0.0001",
        "--workload",
        "latency",
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("delivered"), "{stdout}");
    assert!(stdout.contains("access latency"), "{stdout}");
    assert!(stdout.contains("latency pattern"), "{stdout}");

    let out = hbmctl(&[
        "plan",
        "--capacity-gb",
        "4",
        "--tolerance",
        "0.0001",
        "--workload",
        "latency",
        "--latency-budget",
        "1",
    ]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("timing constraints"), "{stderr}");
}

#[test]
fn runtime_errors_exit_one_without_usage() {
    // An 8 GB device can never provide 100 GB: the planner fails at runtime.
    let out = hbmctl(&["plan", "--capacity-gb", "100", "--tolerance", "0.001"]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn foreign_checkpoint_is_a_runtime_error() {
    let path = temp_path("foreign");
    let _ = std::fs::remove_file(&path);
    let base = [
        "sweep", "--from", "900", "--to", "890", "--step", "10", "--words", "8",
    ];

    let mut first = base.to_vec();
    first.extend(["--seed", "1", "--checkpoint", &path]);
    assert_eq!(exit_code(&hbmctl(&first)), 0);

    // Resuming the same file under a different seed must be refused.
    let mut second = base.to_vec();
    second.extend(["--seed", "2", "--checkpoint", &path, "--resume"]);
    let out = hbmctl(&second);
    let _ = std::fs::remove_file(&path);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("seed"), "{stderr}");
}

/// Flags a command does not read are usage errors, refused before any
/// work runs: the sweep writes no checkpoint, the fleet sweep no artifact.
#[test]
fn unknown_flags_exit_two_before_any_work() {
    let path = temp_path("unknown-flag");
    let _ = std::fs::remove_file(&path);
    for (args, flag) in [
        (
            vec!["sweep", "--kernel", "scalar", "--checkpoint", &path],
            "--kernel",
        ),
        (
            vec!["sweep", "--kernel", "auto", "--checkpoint", &path],
            "--kernel",
        ),
        (
            vec!["sweep", "--wrds", "8", "--checkpoint", &path],
            "--wrds",
        ),
        // Sampled mode is gone: every sweep walks its words in order.
        (
            vec!["sweep", "--sample", "8", "--checkpoint", &path],
            "--sample",
        ),
        (
            vec!["fleet", "sweep", "--backend", "auto", "--out", &path],
            "--backend",
        ),
        (vec!["fleet", "query", "--seed", "3"], "--seed"),
        (vec!["guardband", "--checkpoint", "x"], "--checkpoint"),
        (vec!["serve", "--workers", "2"], "--workers"),
    ] {
        let out = hbmctl(&args);
        assert_eq!(exit_code(&out), 2, "args {args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(flag), "args {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
        assert!(
            !std::path::Path::new(&path).exists(),
            "args {args:?} ran before refusing the flag"
        );
    }
}

#[test]
fn fleet_usage_mistakes_exit_two_with_usage() {
    let dir = std::env::temp_dir();
    let dir = dir.to_str().unwrap();
    for args in [
        vec!["fleet"],
        vec!["fleet", "frobnicate"],
        vec!["fleet", "sweep", "--devices", "0"],
        vec!["fleet", "sweep", "--devices", "abc"],
        // 256 words per PC would overflow the artifact's u16 count column.
        vec!["fleet", "sweep", "--devices", "2", "--words", "256"],
        vec!["fleet", "sweep", "--devices", "2", "--out", ""],
        vec!["fleet", "sweep", "--devices", "2", "--out", dir],
        vec!["fleet", "query", "--device", "0"],
        vec!["fleet", "query", "--artifact", "", "--device", "0"],
        vec!["fleet", "query", "--artifact", dir, "--device", "0"],
        vec!["fleet", "summary"],
        vec!["fleet", "export", "--artifact", dir],
    ] {
        let out = hbmctl(&args);
        assert_eq!(exit_code(&out), 2, "args {args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
    }
}

#[test]
fn fleet_artifact_read_failures_exit_one_without_usage() {
    let missing = temp_path("fleet-missing");
    let _ = std::fs::remove_file(&missing);
    let garbage = temp_path("fleet-garbage");
    std::fs::write(&garbage, b"not an HBFA artifact").unwrap();

    for args in [
        vec!["fleet", "summary", "--artifact", missing.as_str()],
        vec!["fleet", "summary", "--artifact", garbage.as_str()],
        vec!["fleet", "export", "--artifact", garbage.as_str()],
        vec![
            "fleet",
            "query",
            "--artifact",
            garbage.as_str(),
            "--device",
            "0",
        ],
    ] {
        let out = hbmctl(&args);
        assert_eq!(exit_code(&out), 1, "args {args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(!stderr.contains("usage:"), "args {args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&garbage);
}

#[test]
fn fleet_sweep_query_export_round_trip() {
    let artifact = temp_path("fleet-artifact");
    let _ = std::fs::remove_file(&artifact);

    let out = hbmctl(&[
        "fleet",
        "sweep",
        "--devices",
        "4",
        "--words",
        "8",
        "--out",
        &artifact,
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fleet swept 4 devices"), "{stderr}");

    // Query against the persisted artifact: a known device resolves …
    let out = hbmctl(&["fleet", "query", "--artifact", &artifact, "--device", "2"]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("voltage"), "{stdout}");

    // … an unknown device and a nonsense target rate are refused.
    let out = hbmctl(&["fleet", "query", "--artifact", &artifact, "--device", "9"]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let out = hbmctl(&[
        "fleet",
        "query",
        "--artifact",
        &artifact,
        "--device",
        "2",
        "--target-rate",
        "1.5",
    ]);
    assert_eq!(exit_code(&out), 2, "{out:?}");

    // The JSON export of the artifact is byte-identical to the direct
    // export of the same sweep.
    let out = hbmctl(&["fleet", "export", "--artifact", &artifact]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let from_store = String::from_utf8(out.stdout).unwrap();
    let direct = temp_path("fleet-direct");
    let out = hbmctl(&[
        "fleet",
        "sweep",
        "--devices",
        "4",
        "--words",
        "8",
        "--export",
        &direct,
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let from_sweep = std::fs::read_to_string(&direct).unwrap();
    assert_eq!(
        from_store, from_sweep,
        "store export diverged from sweep export"
    );

    // Summary renders the population roll-up.
    let out = hbmctl(&["fleet", "summary", "--artifact", &artifact]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("fleet devices        4"), "{stdout}");
    assert!(stdout.contains("fleet power"), "{stdout}");

    let _ = std::fs::remove_file(&artifact);
    let _ = std::fs::remove_file(&direct);
}

/// Runs `hbmctl` with `input` piped to stdin, returning the completed
/// output.
fn hbmctl_with_stdin(args: &[&str], input: &str) -> Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_hbmctl"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hbmctl");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    child.wait_with_output().expect("hbmctl exit")
}

/// Degenerate target rates (exactly 0.0 or 1.0, or out of range) and an
/// impossible PC floor are usage mistakes: exit 2 with the usage block,
/// through the same typed validation the serve loop applies.
#[test]
fn fleet_query_boundary_parameters_exit_two_with_usage() {
    let artifact = temp_path("fleet-boundary");
    let _ = std::fs::remove_file(&artifact);
    let out = hbmctl(&[
        "fleet",
        "sweep",
        "--devices",
        "2",
        "--words",
        "8",
        "--out",
        &artifact,
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");

    for (flag, value) in [
        ("--target-rate", "0.0"),
        ("--target-rate", "1.0"),
        ("--target-rate", "-0.5"),
        ("--target-rate", "1.5"),
        ("--min-pcs", "33"),
    ] {
        let out = hbmctl(&[
            "fleet",
            "query",
            "--artifact",
            &artifact,
            "--device",
            "0",
            flag,
            value,
        ]);
        assert_eq!(exit_code(&out), 2, "{flag} {value}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage:"), "{flag} {value}: {stderr}");
    }
    let _ = std::fs::remove_file(&artifact);
}

/// Every one-shot fleet question and its `serve` equivalent produce the
/// same bytes: both transports route through `hbm_fleet::api`, and this
/// replay pins that they cannot drift.
#[test]
fn serve_replays_one_shot_fleet_answers_identically() {
    let artifact = temp_path("fleet-serve-replay");
    let _ = std::fs::remove_file(&artifact);
    let out = hbmctl(&[
        "fleet",
        "sweep",
        "--devices",
        "3",
        "--words",
        "8",
        "--out",
        &artifact,
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");

    let one_shot = |args: &[&str]| -> String {
        let out = hbmctl(args);
        assert_eq!(exit_code(&out), 0, "{args:?}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let query = one_shot(&[
        "fleet",
        "query",
        "--artifact",
        &artifact,
        "--device",
        "1",
        "--target-rate",
        "1e-3",
        "--min-pcs",
        "16",
        "--format",
        "json",
    ]);
    let summary = one_shot(&[
        "fleet",
        "summary",
        "--artifact",
        &artifact,
        "--format",
        "json",
    ]);
    let fidelity = one_shot(&[
        "fleet",
        "fidelity",
        "--artifact",
        &artifact,
        "--format",
        "json",
    ]);
    let export = one_shot(&["fleet", "export", "--artifact", &artifact]);

    let requests = concat!(
        "{\"Recommend\":{\"device_id\":1,\"target_rate\":0.001,\"min_pcs\":16}}\n",
        "\"Summary\"\n",
        "\"Fidelity\"\n",
        "\"Export\"\n",
    );
    let out = hbmctl_with_stdin(&["serve", "--artifact", &artifact], requests);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    assert_eq!(lines[0], query.trim_end(), "query diverged from serve");
    assert_eq!(lines[1], summary.trim_end(), "summary diverged from serve");
    assert_eq!(
        lines[2],
        fidelity.trim_end(),
        "fidelity diverged from serve"
    );
    // The one-shot export prints the bare document; serve wraps it in the
    // response envelope around the same serialization.
    assert_eq!(
        lines[3],
        format!("{{\"Export\":{}}}", export.trim_end()),
        "export diverged from serve"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("served 4 queries"), "{stderr}");
    let _ = std::fs::remove_file(&artifact);
}

/// A compress -> serve pipeline answers recommendations from the model
/// alone: the counters prove zero exact-column reads on the happy path.
#[test]
fn compressed_serving_reports_zero_exact_reads() {
    let artifact = temp_path("fleet-compress-src");
    let compressed = temp_path("fleet-compress-dst");
    let _ = std::fs::remove_file(&artifact);
    let _ = std::fs::remove_file(&compressed);
    // An all-clean grid far above the crash band: every cell is certainly
    // fault-free, so the envelope decides every query.
    let out = hbmctl(&[
        "fleet",
        "sweep",
        "--devices",
        "2",
        "--words",
        "8",
        "--from",
        "1000",
        "--to",
        "960",
        "--weak-reference",
        "980",
        "--out",
        &artifact,
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let out = hbmctl(&[
        "fleet",
        "compress",
        "--artifact",
        &artifact,
        "--out",
        &compressed,
        "--keep-exact",
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("exact kept"), "{stdout}");

    let requests = concat!(
        "{\"Recommend\":{\"device_id\":0,\"target_rate\":0.01,\"min_pcs\":16}}\n",
        "{\"Recommend\":{\"device_id\":1,\"target_rate\":0.001,\"min_pcs\":32}}\n",
        "\"Summary\"\n",
    );
    let out = hbmctl_with_stdin(&["serve", "--artifact", &compressed], requests);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("2 compressed hits, 0 exact rescans, 0 exact column reads"),
        "counters must prove the model served alone: {stderr}"
    );
    let _ = std::fs::remove_file(&artifact);
    let _ = std::fs::remove_file(&compressed);
}

#[test]
fn resume_reuses_checkpointed_points() {
    let path = temp_path("resume");
    let _ = std::fs::remove_file(&path);
    let args = [
        "sweep",
        "--from",
        "900",
        "--to",
        "880",
        "--step",
        "10",
        "--words",
        "8",
        "--checkpoint",
        &path,
        "--resume",
    ];
    assert_eq!(exit_code(&hbmctl(&args)), 0);
    let out = hbmctl(&args);
    let _ = std::fs::remove_file(&path);
    assert_eq!(exit_code(&out), 0);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("3 resumed from checkpoint"),
        "second run must resume all points: {stderr}"
    );
}

/// Resumed checkpoints are checked, not trusted: each hand edit of a
/// checkpoint in this corpus describes a point the campaign could not
/// have recorded, and resuming it is a checkpoint error (exit 1) that
/// prints no report. The unedited checkpoint resumes every point and
/// prints the fresh run's report byte for byte.
#[test]
fn hand_edited_checkpoints_are_refused() {
    use hbm_traffic::DataPattern;
    use hbm_undervolt::{PointOutcome, SweepCheckpoint, VoltagePoint};

    let path = temp_path("edited");
    let _ = std::fs::remove_file(&path);
    let sweep = [
        "sweep",
        "--seed",
        "7",
        "--from",
        "1000",
        "--to",
        "900",
        "--step",
        "50",
        "--words",
        "64",
        "--checkpoint",
        &path,
    ];
    let fresh = hbmctl(&sweep);
    assert_eq!(exit_code(&fresh), 0, "{fresh:?}");
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let recorded: SweepCheckpoint = serde_json::from_str(&text).unwrap();
    assert_eq!(recorded.points.len(), 3);

    let resume = |checkpoint: &SweepCheckpoint| {
        std::fs::write(&path, serde_json::to_string(checkpoint).unwrap()).unwrap();
        let mut args = sweep.to_vec();
        args.push("--resume");
        let out = hbmctl(&args);
        let _ = std::fs::remove_file(&path);
        out
    };
    let unedited = resume(&recorded);
    assert_eq!(exit_code(&unedited), 0, "{unedited:?}");
    assert_eq!(unedited.stdout, fresh.stdout, "a resumed report differs");
    let stderr = String::from_utf8(unedited.stderr).unwrap();
    assert!(stderr.contains("3 resumed from checkpoint"), "{stderr}");

    // The last point, 0.90 V, is the one with faults on every port.
    type Edit = fn(&mut VoltagePoint);
    let edits: [(&str, Edit); 7] = [
        ("empty outcomes", |p| p.outcomes.clear()),
        ("inner voltage 5 mV", |p| {
            p.voltage = hbm_units::Millivolts(5)
        }),
        ("renamed pattern", |p| {
            p.outcomes[0].pattern = DataPattern::Checkerboard;
        }),
        ("batch_min above batch_max", |p| {
            p.outcomes[0].batch_min = p.outcomes[0].batch_max + 1;
        }),
        ("duplicated port", |p| {
            let first = p.outcomes[1].per_port[0];
            p.outcomes[1].per_port.push(first);
        }),
        ("port outside the scope", |p| {
            p.outcomes[0].per_port[0].0 = 200
        }),
        ("flip total past the ports' sum", |p| {
            p.outcomes[0].flips_1to0 = u64::MAX;
        }),
    ];
    for (label, edit) in edits {
        let mut edited = recorded.clone();
        let PointOutcome::Completed(point) = &mut edited.points[2].outcome else {
            panic!("0.90 V was skipped");
        };
        edit(point);
        let out = resume(&edited);
        assert_eq!(exit_code(&out), 1, "{label}: {out:?}");
        assert!(out.stdout.is_empty(), "{label}: a report was printed");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("checkpoint error"), "{label}: {stderr}");
        assert!(!stderr.contains("usage:"), "{label}: {stderr}");
    }
}

/// Regression for the per-line flush fix: a request/reply client over a
/// pipe must receive each response before it sends the next request. If
/// serve buffered output until EOF, the first `read_line` here would
/// block forever (bounded by the watchdog timeout) with the session open.
#[test]
fn serve_flushes_each_response_before_the_next_request() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;
    use std::sync::mpsc;
    use std::time::Duration;

    let artifact = temp_path("fleet-serve-flush");
    let _ = std::fs::remove_file(&artifact);
    let out = hbmctl(&[
        "fleet",
        "sweep",
        "--devices",
        "2",
        "--words",
        "8",
        "--out",
        &artifact,
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");

    let mut child = Command::new(env!("CARGO_BIN_EXE_hbmctl"))
        .args(["serve", "--artifact", &artifact])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hbmctl serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");

    // A reader thread feeding a channel lets each read carry a deadline:
    // a deadlocked serve fails the test instead of hanging it.
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        while let Some(Ok(line)) = lines.next() {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let deadline = Duration::from_secs(30);

    stdin
        .write_all(b"{\"Recommend\":{\"device_id\":0,\"target_rate\":0.01,\"min_pcs\":16}}\n")
        .expect("send first request");
    let first = rx
        .recv_timeout(deadline)
        .expect("first response must arrive before the second request is sent");
    assert!(first.contains("Recommendation"), "{first}");

    stdin
        .write_all(b"\"Summary\"\n")
        .expect("send second request");
    let second = rx
        .recv_timeout(deadline)
        .expect("second response must arrive while the session stays open");
    assert!(second.contains("Summary"), "{second}");

    drop(stdin);
    reader.join().expect("reader thread");
    let status = child.wait().expect("hbmctl exit");
    assert_eq!(status.code(), Some(0));
    let _ = std::fs::remove_file(&artifact);
}

/// The pipeline's in-order emitter makes `--serve-workers` throughput-only:
/// the response bytes are identical at every worker count.
#[test]
fn serve_worker_counts_produce_identical_output() {
    let artifact = temp_path("fleet-serve-workers");
    let _ = std::fs::remove_file(&artifact);
    let out = hbmctl(&[
        "fleet",
        "sweep",
        "--devices",
        "3",
        "--words",
        "8",
        "--out",
        &artifact,
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");

    let requests = concat!(
        "{\"Recommend\":{\"device_id\":0,\"target_rate\":0.01,\"min_pcs\":16}}\n",
        "{\"Recommend\":{\"device_id\":1,\"target_rate\":0.001,\"min_pcs\":16}}\n",
        "\"Summary\"\n",
        "{\"Recommend\":{\"device_id\":9,\"target_rate\":0.01,\"min_pcs\":16}}\n",
        "not json\n",
        "{\"Recommend\":{\"device_id\":2,\"target_rate\":0.0001,\"min_pcs\":16}}\n",
    );
    let baseline = hbmctl_with_stdin(
        &["serve", "--artifact", &artifact, "--serve-workers", "1"],
        requests,
    );
    assert_eq!(exit_code(&baseline), 0, "{baseline:?}");
    let concurrent = hbmctl_with_stdin(
        &["serve", "--artifact", &artifact, "--serve-workers", "4"],
        requests,
    );
    assert_eq!(exit_code(&concurrent), 0, "{concurrent:?}");
    assert_eq!(
        String::from_utf8(baseline.stdout).unwrap(),
        String::from_utf8(concurrent.stdout).unwrap(),
        "serve output must be byte-identical across worker counts"
    );
    let stderr = String::from_utf8(concurrent.stderr).unwrap();
    assert!(
        stderr.contains("serve runtime: 4 worker(s)"),
        "runtime counters line must report the pool size: {stderr}"
    );
    let _ = std::fs::remove_file(&artifact);
}

/// Out-of-range serve sizes are usage mistakes, caught before the artifact
/// is opened or any thread starts: no workers or too many, and a cache
/// budget over the cap or whose byte count would overflow (2^44 MiB).
#[test]
fn serve_out_of_range_sizes_exit_two_with_usage() {
    for (flag, value) in [
        ("--serve-workers", "0"),
        ("--serve-workers", "257"),
        ("--serve-workers", "18446744073709551615"),
        ("--rescan-cache-mb", "65537"),
        ("--rescan-cache-mb", "17592186044416"),
    ] {
        let out = hbmctl(&["serve", flag, value]);
        assert_eq!(exit_code(&out), 2, "{flag} {value}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage:"), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}

/// An out-of-range `fleet sweep --workers` or `--devices` is a
/// configuration error (exit 2 with usage) raised by the config's
/// validation, before any device is swept or any buffer is sized: no
/// artifact is written.
#[test]
fn fleet_sweep_out_of_range_counts_exit_two_with_usage() {
    let artifact = temp_path("fleet-counts");
    for (flag, value, message) in [
        ("--workers", "257", "workers must be at most 256"),
        (
            "--workers",
            "18446744073709551615",
            "workers must be at most 256",
        ),
        ("--devices", "65537", "devices must be in 1..=65536"),
        ("--devices", "4294967295", "devices must be in 1..=65536"),
    ] {
        let _ = std::fs::remove_file(&artifact);
        let out = hbmctl(&["fleet", "sweep", flag, value, "--out", &artifact]);
        assert_eq!(exit_code(&out), 2, "{flag} {value}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage:"), "{flag} {value}: {stderr}");
        assert!(stderr.contains(message), "{stderr}");
        assert!(
            !std::path::Path::new(&artifact).exists(),
            "{flag} {value} swept"
        );
    }
}

/// A `--batch` above the cap is a configuration error (exit 2 with usage)
/// from the configuration's validation, before any point runs: the sweep
/// writes no checkpoint and no trace.
#[test]
fn oversized_batch_exits_two_before_any_point() {
    let checkpoint = temp_path("batch-checkpoint");
    let trace = temp_path("batch-trace");
    for value in ["65537", "1099511627776", "18446744073709551615"] {
        for command in ["sweep", "reliability"] {
            let _ = std::fs::remove_file(&checkpoint);
            let _ = std::fs::remove_file(&trace);
            let mut args = vec![command, "--batch", value, "--words", "8"];
            if command == "sweep" {
                args.extend(["--checkpoint", &checkpoint, "--trace-file", &trace]);
            }
            let out = hbmctl(&args);
            assert_eq!(exit_code(&out), 2, "{args:?}: {out:?}");
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
            assert!(
                stderr.contains("batch size must be at most 65536"),
                "{stderr}"
            );
            for path in [&checkpoint, &trace] {
                assert!(
                    !std::path::Path::new(path).exists(),
                    "{args:?} wrote {path}"
                );
            }
        }
    }
}

/// `power-sweep` and `trade-off` run no engine batch, so they take no
/// `--workers`: it is an unknown flag (exit 2 with usage). `guardband`,
/// whose search runs engine batches, keeps it.
#[test]
fn workers_flag_only_where_an_engine_runs() {
    for command in ["power-sweep", "trade-off"] {
        let out = hbmctl(&[command, "--workers", "4"]);
        assert_eq!(exit_code(&out), 2, "{command}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage:"), "{command}: {stderr}");
        assert!(stderr.contains("--workers"), "{command}: {stderr}");
    }
    let out = hbmctl(&["guardband", "--workers", "2", "--format", "csv"]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
}

/// `fleet summary --format csv` renders one header and one data row with
/// matching column counts, including the delivered-bandwidth roll-up.
#[test]
fn fleet_summary_csv_round_trips_columns() {
    let artifact = temp_path("fleet-summary-csv");
    let _ = std::fs::remove_file(&artifact);
    let out = hbmctl(&[
        "fleet",
        "sweep",
        "--devices",
        "3",
        "--words",
        "8",
        "--out",
        &artifact,
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");

    let out = hbmctl(&[
        "fleet",
        "summary",
        "--artifact",
        &artifact,
        "--format",
        "csv",
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].starts_with("devices,"), "{stdout}");
    assert!(
        lines[0].contains("energy_per_delivered_bit_undervolted_pj"),
        "{stdout}"
    );
    assert_eq!(
        lines[0].split(',').count(),
        lines[1].split(',').count(),
        "{stdout}"
    );
    let _ = std::fs::remove_file(&artifact);
}

/// A checkpoint nested far past the JSON parser's depth bound is refused
/// with the typed checkpoint error (exit 1), not a stack overflow.
#[test]
fn deeply_nested_checkpoint_is_a_runtime_error() {
    let path = temp_path("nested");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let out = hbmctl(&[
        "sweep",
        "--from",
        "900",
        "--to",
        "890",
        "--step",
        "10",
        "--words",
        "8",
        "--checkpoint",
        &path,
        "--resume",
    ]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("checkpoint"), "{stderr}");
    assert!(stderr.contains("recursion limit"), "{stderr}");
}

/// A serve session answers a 1 MiB line of `[` in-band with a `parse`
/// error and goes on to the next request, at one worker and at four.
#[test]
fn serve_answers_a_deeply_nested_line_in_band() {
    let artifact = temp_path("fleet-nested");
    let _ = std::fs::remove_file(&artifact);
    let out = hbmctl(&[
        "fleet",
        "sweep",
        "--devices",
        "2",
        "--words",
        "8",
        "--out",
        &artifact,
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let summary = "\"Summary\"";
    let input = format!("{summary}\n{}\n{summary}\n", "[".repeat(1 << 20));
    for workers in ["1", "4"] {
        let out = hbmctl_with_stdin(
            &["serve", "--artifact", &artifact, "--serve-workers", workers],
            &input,
        );
        assert_eq!(exit_code(&out), 0, "{workers} workers: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 3, "{workers} workers: {stdout}");
        assert_eq!(lines[0], lines[2], "{workers} workers");
        assert!(lines[1].contains("\"parse\""), "{}", lines[1]);
        assert!(lines[1].contains("recursion limit"), "{}", lines[1]);
    }
    let _ = std::fs::remove_file(&artifact);
}
