//! The `paper-figures` command line as a process: a name or flag outside
//! the figure table must fail loudly (a typo in CI used to print nothing
//! and exit 0).

use std::process::Command;

#[test]
fn unknown_figure_or_flag_prints_usage_and_exits_2() {
    for bad in ["fig12", "--fast"] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper-figures"))
            .arg(bad)
            .output()
            .expect("paper-figures runs");
        assert_eq!(out.status.code(), Some(2), "`{bad}` must be refused");
        assert!(out.stdout.is_empty(), "`{bad}` ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(bad) && err.contains("usage: paper-figures [all|table1|"),
            "{err}"
        );
    }
}
