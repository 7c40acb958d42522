//! The `campaign` binary end to end.

use std::process::Command;

#[test]
fn run_skips_rows_whose_scheme_cannot_configure() {
    // On 2x2 a router fault leaves `separate-dxb` no line for its D-XB:
    // the S-XB's line and the faulty router's take both coordinates of
    // the second dimension. Those rows once panicked the whole sweep
    // (exit 101); now each is a skip, like any unconfigurable row.
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "run",
            "--scheme",
            "separate-dxb",
            "--shape",
            "2x2",
            "--max-faults",
            "1",
            "--seeds",
            "1",
            "--quiet",
        ])
        .output()
        .expect("the campaign binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    // Four router faults under each of the three default workloads.
    assert!(
        stdout.contains("(12 scenario(s) skipped: unconfigurable"),
        "{stdout}"
    );
    assert!(stdout.contains("separate-dxb            27"), "{stdout}");
}
