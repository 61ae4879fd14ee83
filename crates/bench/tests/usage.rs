//! A mistyped figure-binary flag is a usage error — exit status 2, the
//! offending flag and the usage line on stderr — not a panic, and not a run
//! that silently ignores what was asked of it.

use std::process::Command;

/// Runs `figure7` with `args`; returns its exit status and stderr.
fn figure7(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_figure7"))
        .args(args)
        .output()
        .expect("figure7 runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn mistyped_flags_exit_2_and_name_the_flag() {
    for (args, named) in [
        // A value that does not parse.
        (&["--scale", "x"][..], "`--scale x`"),
        // A removed flag is rejected, not ignored.
        (&["--faults", "42"], "`--faults`"),
        // A flag at the end of the line, its value missing.
        (&["--explain", "--depth"], "`--depth`"),
        (&["--family", "flat"], "`--family flat`"),
    ] {
        let (status, stderr) = figure7(args);
        assert_eq!(status, Some(2), "figure7 {args:?}: {stderr}");
        assert!(
            stderr.contains(named) && stderr.contains("usage: figure7 "),
            "figure7 {args:?} must name {named} and print its usage line: {stderr}"
        );
    }
}
