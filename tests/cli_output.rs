//! The `ekm` binary run as a process: a reader that closes stdout early
//! (`ekm help | head -1`) must end the command quietly, not with a
//! panic; `ekm sweep` must run its whole table through one stage
//! cache; a bad flag is refused with a typed message before any data is
//! built or any socket bound (a `--k` above `--n` too); and `ekm eval`
//! refuses a centers file whose header promises more values than it
//! holds, or no centers at all.

use std::io::BufRead;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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

/// Runs `ekm` like [`ekm`], but kills it if it has not exited within
/// 60 s: a `serve` that gets past its plan waits for its sources.
fn ekm_bounded(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ekm"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ekm starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("ekm waits").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("ekm output")
}

#[test]
fn k_above_n_is_refused_before_any_data_or_socket() {
    for args in [
        &[
            "run",
            "--k",
            "100001",
            "--n",
            "100000",
            "--d",
            "196",
            "--dataset",
            "mixture",
            "--pipeline",
            "nr",
        ][..],
        &[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--k",
            "101",
            "--n",
            "100",
            "--dataset",
            "mixture",
            "--pipeline",
            "nr",
            "--sources",
            "1",
        ],
    ] {
        let out = ekm_bounded(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stdout}{stderr}");
        assert!(stderr.contains("exceeds --n"), "{args:?}: {stderr}");
        // No dataset line, no listening address.
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }

    // k = n is still a plan: the run clusters its 40 points, and the
    // server binds and waits for its source.
    let out = ekm(&[
        "run",
        "--k",
        "40",
        "--n",
        "40",
        "--d",
        "4",
        "--dataset",
        "mixture",
        "--pipeline",
        "nr",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(stdout.starts_with("dataset 40 x 4"), "{stdout}");
    let mut serve = Command::new(env!("CARGO_BIN_EXE_ekm"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--k",
            "100",
            "--n",
            "100",
            "--dataset",
            "mixture",
            "--pipeline",
            "nr",
            "--sources",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("ekm starts");
    let mut line = String::new();
    let read =
        std::io::BufReader::new(serve.stdout.take().expect("piped stdout")).read_line(&mut line);
    let _ = serve.kill();
    let _ = serve.wait();
    read.expect("serve's first line");
    assert!(line.starts_with("listening on 127.0.0.1:"), "{line}");
}

#[test]
fn eval_refuses_a_centers_file_of_no_rows() {
    let path = std::env::temp_dir().join(format!("ekm-eval-empty-{}.txt", std::process::id()));
    std::fs::write(&path, "0 4\n").unwrap();
    let file = path.to_str().unwrap();
    let out = ekm(&[
        "eval",
        "--centers",
        file,
        "--dataset",
        "mixture",
        "--n",
        "40",
        "--d",
        "4",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(
        stderr.contains(&format!("{file} holds no centers")),
        "{stderr}"
    );
    assert!(stdout.is_empty(), "{stdout}");
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
