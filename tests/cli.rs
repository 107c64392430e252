//! CLI smoke tests: every subcommand must answer `--help` with exit 0, the
//! top-level usage must list every subcommand (so help drift fails loudly),
//! and configuration errors must exit nonzero with a message on stderr.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_norush");

const COMMANDS: &[&str] = &[
    "list",
    "table1",
    "run",
    "compare",
    "soak",
    "fuzz",
    "litmus",
    "explore",
    "microbench",
    "record",
    "replay",
];

#[test]
fn every_subcommand_help_succeeds() {
    for cmd in COMMANDS {
        let out = Command::new(BIN)
            .args([cmd, "--help"])
            .output()
            .expect("spawn norush");
        assert!(
            out.status.success(),
            "`norush {cmd} --help` exited {:?}:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !out.stdout.is_empty(),
            "`norush {cmd} --help` printed nothing"
        );
    }
}

#[test]
fn usage_lists_every_subcommand_and_exit_codes() {
    for args in [&[][..], &["help"][..], &["--help"][..]] {
        let out = Command::new(BIN).args(args).output().expect("spawn norush");
        assert!(out.status.success(), "usage via {args:?} failed");
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        for cmd in COMMANDS {
            assert!(
                text.lines().any(|l| l.trim_start().starts_with(cmd)),
                "usage via {args:?} does not list `{cmd}`"
            );
        }
        assert!(
            text.contains("exit codes:"),
            "usage via {args:?} does not document exit codes"
        );
    }
}

#[test]
fn config_errors_exit_nonzero_with_stderr() {
    // Each case with a fragment its error message must contain.
    let cases: &[(&[&str], &str)] = &[
        (&["litmus", "--test", "nonesuch"], "nonesuch"),
        (&["explore", "--policy", "nonesuch"], "nonesuch"),
        (&["explore", "--replay", "00"], "--test"), // --replay without --test
        (&["fuzz", "--kernel", "kv"], "kv"),
        (&["run", "nonesuch"], "nonesuch"),
        (
            &["run", "pc", "--cores", "abc"],
            "--cores: `abc` is not a number",
        ),
        (
            &["run", "pc", "--seed", "-1"],
            "--seed: `-1` is not a number",
        ),
        (&["soak", "--policies", "lazy,nonesuch"], "nonesuch"),
    ];
    for (args, fragment) in cases {
        let out = Command::new(BIN)
            .args(*args)
            .output()
            .expect("spawn norush");
        assert!(
            !out.status.success(),
            "`norush {}` should fail",
            args.join(" ")
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(fragment),
            "`norush {}` must name `{fragment}` on stderr: {err}",
            args.join(" ")
        );
    }
}

#[test]
fn fuzz_kernel_error_names_real_kernels() {
    let out = Command::new(BIN)
        .args(["fuzz", "--kernel", "nonesuch"])
        .output()
        .expect("spawn norush");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    for name in ["counter", "mpmc-queue", "mw-register"] {
        assert!(
            err.contains(name),
            "fuzz --kernel error must name `{name}`: {err}"
        );
    }
}

/// `--policies` is one comma list for every subcommand: entries are
/// trimmed and empty ones dropped.
#[test]
fn spaced_policy_lists_parse_alike() {
    let dir = std::env::temp_dir().join(format!("norush-cli-policies-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (cmd, extra) in [
        (
            "soak",
            &["--phases", "1", "--ops", "20", "--phase-cycles", "200000"][..],
        ),
        (
            "litmus",
            &["--test", "sb", "--samples", "1", "--jobs", "1"][..],
        ),
    ] {
        let out = Command::new(BIN)
            .args([cmd, "--policies", "lazy, row,"])
            .args(extra)
            .arg("--out")
            .arg(dir.join(format!("{cmd}.json")))
            .arg("--repro-dir")
            .arg(dir.join(format!("{cmd}_repro")))
            .output()
            .expect("spawn norush");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "`norush {cmd}` failed:\n{err}");
        let report = std::fs::read_to_string(dir.join(format!("{cmd}.json"))).expect("report");
        for policy in ["lazy", "row"] {
            assert!(report.contains(&format!("\"{policy}\"")), "{report}");
        }
        assert!(
            !report.contains("\" row\""),
            "entries are trimmed: {report}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
