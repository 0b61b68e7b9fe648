//! The `ekm` binary run as a process: a reader that closes stdout early
//! (`ekm help | head -1`) must end the command quietly, not with a
//! panic; `ekm sweep` must run its whole table through one stage
//! cache; a bad flag is refused with a typed message before any data is
//! built or any socket bound; and `ekm eval` refuses a centers file
//! whose header promises more values than it holds.

use std::process::{Command, Output, Stdio};

fn ekm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ekm"))
        .args(args)
        .output()
        .expect("ekm starts")
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_ekm"))
        .arg("help")
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("ekm starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

#[test]
fn sweep_runs_every_composition_through_one_stage_cache() {
    let out = ekm(&[
        "sweep",
        "--dataset",
        "mixture",
        "--n",
        "400",
        "--d",
        "16",
        "--k",
        "2",
        "--sources",
        "2",
        "--stages",
        "jl,fss,qt:6;jl,stream,qt",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    // The seven default pipelines plus the two --stages extras.
    let rows = stdout.lines().filter(|l| l.contains("   comm ")).count();
    assert_eq!(rows, 9, "{stdout}");
    let cache = stdout
        .lines()
        .find_map(|l| l.strip_prefix("stage cache: "))
        .unwrap_or_else(|| panic!("no stage cache line:\n{stdout}"));
    let hits: u64 = cache
        .split_whitespace()
        .next()
        .and_then(|h| h.parse().ok())
        .unwrap_or_else(|| panic!("unreadable stage cache line: {cache}"));
    assert!(hits > 0, "the shared jl,fss prefix never hit: {cache}");
}

#[test]
fn removed_settings_are_refused() {
    for (args, refusal) in [
        (&["sweep", "--no-cache"][..], "unknown flag --no-cache"),
        (
            &["sweep", "--cache-budget", "1000"],
            "unknown flag --cache-budget",
        ),
        (
            &["run", "--stages", "stream:128", "--n", "40", "--d", "4"],
            "unknown stage 'stream:128' (valid stages: jl, fss, stream, qt",
        ),
    ] {
        let out = ekm(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(refusal), "{args:?}: {stderr}");
    }
}

#[test]
fn bad_flags_are_refused_before_any_data_or_socket() {
    for (args, refusal) in [
        (
            &[
                "run",
                "--stages",
                "warp",
                "--n",
                "100000",
                "--d",
                "196",
                "--dataset",
                "mixture",
            ][..],
            "unknown stage 'warp'",
        ),
        (
            &[
                "run",
                "--sources",
                "0",
                "--pipeline",
                "bklw",
                "--n",
                "100000",
            ],
            "--sources expects a positive integer",
        ),
        (
            &["run", "--k", "0", "--dataset", "mnist-like"],
            "--k expects a positive integer",
        ),
        (
            &["sweep", "--d", "0", "--dataset", "mixture"],
            "--d expects a positive integer",
        ),
        (
            &[
                "source",
                "--connect",
                "127.0.0.1:1",
                "--source-id",
                "0",
                "--k",
                "0",
            ],
            "--k expects a positive integer",
        ),
        (
            &["serve", "--listen", "127.0.0.1:0", "--k", "0"],
            "--k expects a positive integer",
        ),
        (
            &["serve", "--listen", "127.0.0.1:0", "--n", "0"],
            "--n expects a positive integer",
        ),
        (
            &[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--sources",
                "0",
                "--pipeline",
                "bklw",
            ],
            "--sources expects a positive integer",
        ),
    ] {
        let out = ekm(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(refusal), "{args:?}: {stderr}");
        // Nothing was built, solved or bound: no dataset line, no
        // reference cost, no listening address.
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}

#[test]
fn eval_refuses_a_header_larger_than_its_file() {
    let path = std::env::temp_dir().join(format!("ekm-eval-header-{}.txt", std::process::id()));
    // The first header once asked for an 8 PB buffer before reading a
    // value; the second's product wraps to zero in release builds.
    for header in ["1000000000000 1000", "2305843009213693952 8"] {
        std::fs::write(&path, format!("{header}\n")).unwrap();
        let out = ekm(&[
            "eval",
            "--centers",
            path.to_str().unwrap(),
            "--dataset",
            "mixture",
            "--n",
            "40",
            "--d",
            "4",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{header}: {stderr}");
        let (rows, cols) = header.split_once(' ').unwrap();
        assert!(
            stderr.contains(&format!("holds 0 values, expected {rows}x{cols}")),
            "{header}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&path);
}
