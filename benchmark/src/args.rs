//! Command-line arguments shared by both binaries.

use crate::script::Workload;

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// `--workload <name>`; `None` runs every workload, one child
    /// process each.
    pub workload: Option<Workload>,
    /// `--seed <n>`: chooses the script.
    pub seed: u64,
    /// `--seconds <n>`: the measured phase is sized to last about this
    /// long on the build host.
    pub seconds: u64,
    /// `--trace <0|1>`: 1 asks for the per-layer run.
    pub trace: bool,
    /// `--quick`: ≈ 1 % of every count, for tests.
    pub quick: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: None,
            seed: 1,
            seconds: 20,
            trace: false,
            quick: false,
        }
    }
}

/// The usage line printed on a bad command line.
pub const USAGE: &str =
    "usage: [--workload wire_mixed|ingest_decay|query_scan|consume_cook] [--seed N] \
     [--seconds N] [--trace 0|1] [--quick]";

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    out.workload = Some(
                        Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => out.seed = number(&flag, &value()?)?,
                "--seconds" => {
                    out.seconds = number(&flag, &value()?)?;
                    if !(1..=600).contains(&out.seconds) {
                        return Err("--seconds must be between 1 and 600".to_string());
                    }
                }
                "--trace" => out.trace = number(&flag, &value()?)? != 0,
                "--quick" => out.quick = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }

    /// The factor every count of the script is scaled by.
    pub fn scale(&self) -> f64 {
        if self.quick {
            0.01
        } else {
            1.0
        }
    }

    /// The arguments that reproduce this run for `workload`.
    pub fn for_child(&self, workload: Workload) -> Vec<String> {
        let mut v = vec![
            "--workload".to_string(),
            workload.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            u8::from(self.trace).to_string(),
        ];
        if self.quick {
            v.push("--quick".to_string());
        }
        v
    }
}

fn number(flag: &str, text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a whole number, got `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "query_scan",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::QueryScan));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (42, 20, true, false));
        assert_eq!(Args::parse(a.for_child(Workload::QueryScan)).unwrap(), a);
    }

    #[test]
    fn bad_input_is_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert_eq!(parse(&[]).unwrap(), Args::default());
        assert_eq!(parse(&["--quick"]).unwrap().scale(), 0.01);
    }
}
