//! `scale_throughput` rejects sweep input it cannot honour: a negative or
//! non-finite `--horizon` and `--jobs 0` exit with status 2 before any
//! training or output, like every other bad value the strict parser sees.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn bad_sweep_input_exits_2_without_writing_output() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("scale_throughput_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (flag, value) in [
        ("--horizon", "-0.5"),
        ("--horizon", "NaN"),
        ("--horizon", "inf"),
        ("--jobs", "0"),
    ] {
        let out = dir.join("BENCH_scale.json");
        // `--quick` bounds the run should the rejection ever regress.
        let run = Command::new(env!("CARGO_BIN_EXE_scale_throughput"))
            .current_dir(&dir)
            .args(["--quick", flag, value, "--out"])
            .arg(&out)
            .output()
            .expect("scale_throughput runs");
        assert_eq!(
            run.status.code(),
            Some(2),
            "{flag} {value}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains(&format!("invalid value `{value}` for `{flag}`")),
            "{flag} {value}: {stderr}"
        );
        assert!(!out.exists(), "{flag} {value}: wrote {}", out.display());
    }
    std::fs::remove_dir_all(&dir).expect("clean up temp dir");
}
