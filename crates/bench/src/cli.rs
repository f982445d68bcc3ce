//! One strict command-line parser shared by every bench binary.
//!
//! Each binary declares the flags it accepts as a [`Cli`]. Anything else
//! is an error: an unknown flag (a typo such as `--quik` must not launch
//! the multi-minute full sweep), a valued flag with no value (a trailing
//! `--floor` must not silently drop its gate), or a value that does not
//! parse. [`Cli::parse`] reports the problem with a usage line on stderr
//! and exits with status 2.

use std::fmt;
use std::str::FromStr;

/// How a flag takes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arity {
    /// Present or absent (`--quick`).
    Switch,
    /// Always followed by a value (`--jobs <n>`).
    Required(&'static str),
    /// The next argument is its value unless that is another flag
    /// (`--trace [prefix]`).
    Optional(&'static str),
}

/// One flag a binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    arity: Arity,
}

impl Flag {
    /// A switch: present or absent (`--quick`).
    pub const fn switch(name: &'static str) -> Self {
        Flag {
            name,
            arity: Arity::Switch,
        }
    }

    /// A flag that must be followed by a value; `meta` names the value
    /// in the usage line (`--jobs <n>`).
    pub const fn value(name: &'static str, meta: &'static str) -> Self {
        Flag {
            name,
            arity: Arity::Required(meta),
        }
    }

    /// A flag whose value may be omitted (`--trace [prefix]`): the next
    /// argument is its value unless it starts with `--`.
    pub const fn optional(name: &'static str, meta: &'static str) -> Self {
        Flag {
            name,
            arity: Arity::Optional(meta),
        }
    }
}

/// What was wrong with a command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An argument that is not a declared flag.
    Unknown(String),
    /// A valued flag at the end of the line or followed by another flag.
    MissingValue(&'static str),
    /// A value that does not parse (or fails the binary's own check).
    BadValue {
        /// The flag (or positional argument name) the value belongs to.
        flag: String,
        /// The offending value.
        value: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Unknown(a) => write!(f, "unknown argument `{a}`"),
            CliError::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            CliError::BadValue { flag, value } => {
                write!(f, "invalid value `{value}` for `{flag}`")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// A binary's command-line grammar: its name, its flags and at most one
/// optional positional argument.
#[derive(Debug, Clone, Copy)]
pub struct Cli<'a> {
    bin: &'static str,
    flags: &'a [Flag],
    positional: Option<&'static str>,
}

impl<'a> Cli<'a> {
    /// The grammar of binary `bin`, accepting exactly `flags`.
    pub const fn new(bin: &'static str, flags: &'a [Flag]) -> Self {
        Cli {
            bin,
            flags,
            positional: None,
        }
    }

    /// Also accepts one optional positional argument named `meta`.
    pub const fn with_positional(self, meta: &'static str) -> Self {
        Cli {
            positional: Some(meta),
            ..self
        }
    }

    /// The usage line: `usage: <bin> [--quick] [--jobs <n>] …`.
    fn usage(&self) -> String {
        let mut s = format!("usage: {}", self.bin);
        for f in self.flags {
            match f.arity {
                Arity::Switch => s.push_str(&format!(" [{}]", f.name)),
                Arity::Required(m) => s.push_str(&format!(" [{} <{m}>]", f.name)),
                Arity::Optional(m) => s.push_str(&format!(" [{} [{m}]]", f.name)),
            }
        }
        if let Some(m) = self.positional {
            s.push_str(&format!(" [{m}]"));
        }
        s
    }

    /// Parses the process arguments; on any error prints it with the
    /// usage line and exits with status 2.
    pub fn parse(&self) -> Args {
        match self.parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => self.fail(&e),
        }
    }

    /// Parses `args` (without the program name).
    ///
    /// # Errors
    /// Returns the first unknown argument or missing value.
    fn parse_from<I>(&self, args: I) -> Result<Args, CliError>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut it = args.into_iter().map(Into::into).peekable();
        let mut out = Args {
            bin: self.bin,
            usage: self.usage(),
            positional_name: self.positional,
            seen: Vec::new(),
            positional: None,
        };
        while let Some(a) = it.next() {
            let Some(flag) = self.flags.iter().find(|f| f.name == a) else {
                if self.positional.is_some() && out.positional.is_none() && !a.starts_with('-') {
                    out.positional = Some(a);
                    continue;
                }
                return Err(CliError::Unknown(a));
            };
            let takes_next = it.peek().is_some_and(|v| !v.starts_with("--"));
            let value = match flag.arity {
                Arity::Switch => None,
                Arity::Required(_) if takes_next => it.next(),
                Arity::Required(_) => return Err(CliError::MissingValue(flag.name)),
                Arity::Optional(_) => takes_next.then(|| it.next()).flatten(),
            };
            out.seen.push((flag.name, value));
        }
        Ok(out)
    }

    /// Reports `err` with the usage line and exits with status 2.
    fn fail(&self, err: &CliError) -> ! {
        fail(self.bin, &self.usage(), err)
    }
}

fn fail(bin: &str, usage: &str, err: &CliError) -> ! {
    eprintln!("{bin}: {err}\n{usage}");
    std::process::exit(2)
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    bin: &'static str,
    usage: String,
    positional_name: Option<&'static str>,
    /// Flags in command-line order with their values; a repeated flag's
    /// last occurrence wins.
    seen: Vec<(&'static str, Option<String>)>,
    positional: Option<String>,
}

impl Args {
    fn last(&self, name: &str) -> Option<&Option<String>> {
        self.seen
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// True if flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    /// The value of flag `name`, if it was given with one.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.last(name).and_then(|v| v.as_deref())
    }

    /// For a [`Flag::optional`] flag: `None` if it was not given, else its
    /// value, or `default` when it was given without one.
    pub fn value_or<'s>(&'s self, name: &str, default: &'s str) -> Option<&'s str> {
        self.last(name).map(|v| v.as_deref().unwrap_or(default))
    }

    /// The value of flag `name` parsed as `T`.
    ///
    /// # Errors
    /// Returns [`CliError::BadValue`] if the value does not parse.
    pub fn try_get<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.value(name)
            .map(|v| {
                v.parse().map_err(|_| CliError::BadValue {
                    flag: name.to_string(),
                    value: v.to_string(),
                })
            })
            .transpose()
    }

    /// [`Args::try_get`], exiting with status 2 on an unparsable value.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.try_get(name).unwrap_or_else(|e| self.fail(&e))
    }

    /// The positional argument parsed as `T`, exiting with status 2 if it
    /// does not parse.
    pub fn positional<T: FromStr>(&self) -> Option<T> {
        let v = self.positional.as_deref()?;
        Some(v.parse().unwrap_or_else(|_| {
            self.fail(&CliError::BadValue {
                flag: self.positional_name.unwrap_or("argument").to_string(),
                value: v.to_string(),
            })
        }))
    }

    /// Rejects the value of flag `name` (given, but failing a check the
    /// parser cannot express): reports it and exits with status 2.
    pub fn reject(&self, name: &str) -> ! {
        self.fail(&CliError::BadValue {
            flag: name.to_string(),
            value: self.value(name).unwrap_or_default().to_string(),
        })
    }

    /// Reports `err` with the usage line and exits with status 2.
    fn fail(&self, err: &CliError) -> ! {
        fail(self.bin, &self.usage, err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli<'static> = Cli::new(
        "scale_throughput",
        &[
            Flag::switch("--quick"),
            Flag::switch("--check"),
            Flag::value("--floor", "jobs/s"),
            Flag::optional("--trace", "prefix"),
        ],
    );

    #[test]
    fn trailing_valued_flag_is_a_missing_value() {
        assert_eq!(
            CLI.parse_from(["--check", "--floor"]).unwrap_err(),
            CliError::MissingValue("--floor")
        );
        // A flag where the value should be is no value either.
        assert_eq!(
            CLI.parse_from(["--floor", "--check"]).unwrap_err(),
            CliError::MissingValue("--floor")
        );
    }

    #[test]
    fn typos_and_undeclared_flags_are_unknown() {
        assert_eq!(
            CLI.parse_from(["--quik"]).unwrap_err(),
            CliError::Unknown("--quik".into())
        );
        assert_eq!(
            CLI.parse_from(["--quick", "--partitions", "4"])
                .unwrap_err(),
            CliError::Unknown("--partitions".into())
        );
        // No positional argument is declared, so a bare word is unknown.
        assert_eq!(
            CLI.parse_from(["300"]).unwrap_err(),
            CliError::Unknown("300".into())
        );
    }

    #[test]
    fn unparsable_values_are_bad_values() {
        let args = CLI.parse_from(["--floor", "fast"]).unwrap();
        assert_eq!(
            args.try_get::<f64>("--floor").unwrap_err(),
            CliError::BadValue {
                flag: "--floor".into(),
                value: "fast".into()
            }
        );
    }

    #[test]
    fn accepted_lines_parse_switches_values_and_optional_values() {
        let args = CLI
            .parse_from(["--quick", "--floor", "1800", "--trace", "--check"])
            .unwrap();
        assert!(args.has("--quick") && args.has("--check"));
        assert_eq!(args.try_get::<f64>("--floor").unwrap(), Some(1800.0));
        assert_eq!(
            args.value_or("--trace", "dflt"),
            Some("dflt"),
            "value omitted"
        );
        let args = CLI.parse_from(["--trace", "out/run"]).unwrap();
        assert_eq!(args.value_or("--trace", "dflt"), Some("out/run"));
        assert!(!args.has("--quick"));
        assert_eq!(args.try_get::<f64>("--floor").unwrap(), None);
        assert_eq!(
            CLI.parse_from(["--quick"])
                .unwrap()
                .value_or("--trace", "dflt"),
            None
        );
    }

    #[test]
    fn positional_argument_is_accepted_once_when_declared() {
        let cli = Cli::new("calibrate", &[]).with_positional("n_jobs");
        let args = cli.parse_from(["300"]).unwrap();
        assert_eq!(args.positional::<usize>(), Some(300));
        assert_eq!(
            cli.parse_from(["300", "400"]).unwrap_err(),
            CliError::Unknown("400".into())
        );
        assert_eq!(
            cli.usage(),
            "usage: calibrate [n_jobs]",
            "usage line lists the positional"
        );
    }

    #[test]
    fn usage_line_lists_every_flag() {
        assert_eq!(
            CLI.usage(),
            "usage: scale_throughput [--quick] [--check] [--floor <jobs/s>] [--trace [prefix]]"
        );
    }
}
