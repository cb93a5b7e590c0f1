//! Tiny argument-parsing helpers shared by the example CLIs (included
//! via `#[path]`; this directory is not itself an example target).

/// First token that is neither a flag nor the value of a value-taking
/// flag.
pub fn positional<'a>(args: &'a [String], value_flags: &[&str]) -> Option<&'a String> {
    let mut skip = false;
    args.iter().find(|a| {
        if skip {
            skip = false;
            return false;
        }
        if a.starts_with("--") {
            skip = value_flags.contains(&a.as_str());
            return false;
        }
        true
    })
}

/// Rejects any `--flag` in `args` that is neither one of `value_flags`
/// (whose next token is its value and is skipped) nor one of
/// `switches`, so a mistyped or retired flag fails loudly instead of
/// being ignored. The error carries `usage`.
#[allow(dead_code)] // not every CLI that shares this module calls it
pub fn check_flags(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
    usage: &str,
) -> Result<(), String> {
    let mut tokens = args.iter();
    while let Some(a) = tokens.next() {
        if value_flags.contains(&a.as_str()) {
            tokens.next();
        } else if a.starts_with("--") && !switches.contains(&a.as_str()) {
            return Err(format!("unknown flag {a}; {usage}"));
        }
    }
    Ok(())
}
