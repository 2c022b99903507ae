//! The reply-field extractor the socket clients use on the hot path: it
//! answers "did the op succeed" and "which id did it get" without building a
//! JSON tree per reply. Final `stats`/`snapshot` replies, which the output
//! checks read in full, go through `serde_json` instead.

/// Whether a reply line reports success. The protocol always emits `"ok"`
/// first.
pub fn is_ok(line: &str) -> bool {
    line.starts_with("{\"ok\":true")
}

/// The unsigned integer value of the first `"key":<digits>` in `line`. The
/// protocol emits a reply's own scalars before any nested array, so the first
/// occurrence is the top-level one; a key whose value is not a number (the
/// `"completed":[…]` effect list, say) yields `None`.
pub fn uint_field(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Real reply lines: the repository's golden serve transcript.
    const GOLDEN: &str = include_str!("../../../examples/serve_session.golden");

    fn golden_line(prefix: &str) -> &'static str {
        GOLDEN
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no golden line starts with {prefix}"))
    }

    #[test]
    fn ok_flag_on_golden_replies() {
        let oks = GOLDEN.lines().filter(|l| is_ok(l)).count();
        let fails = GOLDEN
            .lines()
            .filter(|l| l.starts_with("{\"ok\":false"))
            .count();
        assert_eq!(oks + fails, GOLDEN.lines().count());
        assert!(oks > 10 && fails >= 5);
    }

    #[test]
    fn ids_and_counters_on_golden_replies() {
        let second_reserve = GOLDEN
            .lines()
            .filter(|l| l.contains("\"op\":\"reserve\"") && is_ok(l))
            .nth(1)
            .unwrap();
        assert_eq!(uint_field(second_reserve, "reservation"), Some(1));

        // A submit reply nests `"job"`/`"start"` objects after its own id.
        let submit = golden_line("{\"ok\":true,\"op\":\"submit\",\"job\":2");
        assert_eq!(uint_field(submit, "job"), Some(2));
        assert_eq!(uint_field(submit, "start"), Some(0));
        assert_eq!(uint_field(submit, "started"), None);

        let advance = golden_line("{\"ok\":true,\"op\":\"advance\"");
        assert_eq!(uint_field(advance, "now"), Some(4));

        let stats = GOLDEN
            .lines()
            .rfind(|l| l.contains("\"op\":\"stats\""))
            .unwrap();
        assert_eq!(uint_field(stats, "submitted"), Some(4));
        assert_eq!(uint_field(stats, "completed"), Some(4));
        assert_eq!(uint_field(stats, "machines"), Some(8));
        assert_eq!(uint_field(stats, "policy"), None);
        assert_eq!(uint_field(stats, "absent"), None);
    }
}
