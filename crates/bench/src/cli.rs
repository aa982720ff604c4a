//! Command-line handling shared by the `paper` and `scale_study` binaries.
//!
//! Each binary declares the subcommands and flags it accepts; anything else
//! — an unknown subcommand, an unknown flag, a `--out` whose value is
//! missing or is itself a flag — is a diagnosed error, so a typo can never
//! silently select a different (and much slower) run.
//!
//! Binaries call [`StudyArgs::parse`], which prints the diagnosis plus the
//! usage line and exits 2; the fallible [`StudyArgs::from_vec`] is the
//! testable core.

use std::path::PathBuf;

/// The parsed command line of a bench binary.
#[derive(Debug, Clone, Default)]
pub struct StudyArgs {
    /// The subcommand; empty for a binary that takes none.
    pub subcommand: String,
    /// `--smoke`: tiny run plus self-checks.
    pub smoke: bool,
    /// `--quick`: reduced workload.
    pub quick: bool,
    /// `--out DIR`.
    pub out: Option<PathBuf>,
}

impl StudyArgs {
    /// Parse the process arguments; on invalid input print the diagnosis and
    /// `usage` to stderr and exit 2.
    pub fn parse(usage: &str, subcommands: &[&str], flags: &[&str]) -> StudyArgs {
        match StudyArgs::from_vec(std::env::args().skip(1).collect(), subcommands, flags) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("error: {message}\nusage: {usage}");
                std::process::exit(2);
            }
        }
    }

    /// The testable core of [`parse`](StudyArgs::parse); `args` excludes
    /// the program name. `subcommands` empty means the binary takes none;
    /// otherwise exactly one is required. `flags` lists which of `--smoke`,
    /// `--quick`, `--out` this binary accepts.
    pub fn from_vec(
        args: Vec<String>,
        subcommands: &[&str],
        flags: &[&str],
    ) -> Result<StudyArgs, String> {
        let mut parsed = StudyArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if !parsed.subcommand.is_empty() || !subcommands.contains(&arg.as_str()) {
                    return Err(format!("unknown subcommand {arg:?}"));
                }
                parsed.subcommand = arg;
                continue;
            }
            if !flags.contains(&arg.as_str()) {
                return Err(format!("unknown flag {arg:?}"));
            }
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--quick" => parsed.quick = true,
                "--out" => match args.next() {
                    Some(dir) if !dir.starts_with("--") => parsed.out = Some(PathBuf::from(dir)),
                    Some(flag) => return Err(format!("--out wants a directory, got {flag:?}")),
                    None => return Err("--out wants a directory".to_string()),
                },
                other => unreachable!("binary accepts {other}, which the parser does not know"),
            }
        }
        if !subcommands.is_empty() && parsed.subcommand.is_empty() {
            return Err("missing subcommand".to_string());
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUBCOMMANDS: [&str; 2] = ["table1", "traces"];
    const FLAGS: [&str; 2] = ["--quick", "--out"];

    fn parse(args: &[&str]) -> Result<StudyArgs, String> {
        StudyArgs::from_vec(args.iter().map(|s| s.to_string()).collect(), &SUBCOMMANDS, &FLAGS)
    }

    #[test]
    fn shared_flags_and_defaults() {
        let a = parse(&["table1"]).unwrap();
        assert_eq!(a.subcommand, "table1");
        assert!(!a.smoke && !a.quick);
        assert_eq!(a.out, None);

        let a = parse(&["--quick", "traces", "--out", "somewhere"]).unwrap();
        assert_eq!(a.subcommand, "traces");
        assert!(a.quick);
        assert_eq!(a.out, Some(PathBuf::from("somewhere")));

        let a = StudyArgs::from_vec(vec!["--smoke".to_string()], &[], &["--smoke"]).unwrap();
        assert!(a.smoke && a.subcommand.is_empty());
    }

    #[test]
    fn unknown_or_missing_subcommand_is_rejected() {
        assert!(parse(&["nosuch"]).unwrap_err().contains("unknown subcommand"));
        assert!(parse(&["table1", "traces"]).unwrap_err().contains("unknown subcommand"));
        assert!(parse(&["--quick"]).unwrap_err().contains("missing subcommand"));
        // A binary without subcommands takes no positional argument at all.
        assert!(StudyArgs::from_vec(vec!["table1".to_string()], &[], &FLAGS).is_err());
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(parse(&["table1", "--quik"]).unwrap_err().contains("unknown flag"));
        // `--smoke` is a real flag, but not one this binary declared.
        assert!(parse(&["table1", "--smoke"]).unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn out_wants_a_directory_not_a_flag() {
        assert!(parse(&["traces", "--out", "--quick"]).unwrap_err().contains("--out wants"));
        assert!(parse(&["traces", "--out"]).unwrap_err().contains("--out wants"));
    }
}
