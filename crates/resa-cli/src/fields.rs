//! Strict field validation for the CLI's hand-rolled JSON surfaces.
//!
//! The vendored serde stand-in has no `#[serde(deny_unknown_fields)]`, so
//! the manual `Deserialize` impls (sweep specs, serve requests) historically
//! ignored unknown keys — a misspelled `reservation` silently produced a
//! reservation-free sweep. This module provides the missing strictness:
//!
//! * [`check_fields`] rejects keys outside an allow-list, with a
//!   did-you-mean suggestion for near-misses;
//! * a `Section` table declares a JSON object's fields once and reads it:
//!   the allow-list, the required fields and the one `field '<name>': …`
//!   wrapping of a bad value all come from the table;
//! * [`anchor_line`] maps an error that names a field back to the line of
//!   the original JSON text that introduced it, so the user gets
//!   `line 9: unknown field 'reservation' …` instead of a bare message.

use serde::{DeError, Value};

/// Reject any key of `value` (which must be an object) that is not in
/// `allowed`, naming the context and suggesting the nearest known field.
pub fn check_fields(value: &Value, context: &str, allowed: &[&str]) -> Result<(), DeError> {
    let Some(fields) = value.as_object() else {
        return Err(DeError::custom(format!("{context} must be a JSON object")));
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            let suggestion = nearest(key, allowed)
                .map(|s| format!(" (did you mean '{s}'?)"))
                .unwrap_or_default();
            return Err(DeError::custom(format!(
                "unknown field '{key}' in {context}{suggestion}"
            )));
        }
    }
    Ok(())
}

/// One row of a JSON object's field table: the field's name, and how its
/// value sets the object's struct `T`.
pub(crate) enum Field<T> {
    /// A field the object must have.
    Required(&'static str, SetField<T>),
    /// A field the object may leave out (or set to `null`).
    Optional(&'static str, SetField<T>),
}

type SetField<T> = fn(&mut T, &Value) -> Result<(), DeError>;

pub(crate) use Field::{Optional, Required};

/// A JSON object's field table, read by [`Section::read`].
pub(crate) struct Section<T: 'static> {
    /// How errors name the object, e.g. `the 'failures' section`.
    pub(crate) context: &'static str,
    /// Prefixed to the names in missing-field errors, e.g. `failures.`.
    pub(crate) prefix: &'static str,
    pub(crate) fields: &'static [Field<T>],
}

impl<T> Section<T> {
    /// Each field as `(name, required, setter)`.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (&'static str, bool, SetField<T>)> + '_ {
        self.fields.iter().map(|field| match *field {
            Required(name, set) => (name, true, set),
            Optional(name, set) => (name, false, set),
        })
    }

    /// Read `value` into `out`: keys outside the table are rejected, then
    /// each field is read in table order. An absent or `null` field keeps
    /// `out`'s value, or is an error when required.
    pub(crate) fn read(&self, value: &Value, mut out: T) -> Result<T, DeError> {
        let names: Vec<&str> = self.rows().map(|(name, ..)| name).collect();
        check_fields(value, self.context, &names)?;
        for (name, required, set) in self.rows() {
            match value.get(name) {
                None | Some(Value::Null) if required => {
                    let prefix = self.prefix;
                    return Err(DeError::custom(format!(
                        "missing required field '{prefix}{name}'"
                    )));
                }
                None | Some(Value::Null) => {}
                Some(v) => set(&mut out, v).map_err(|e| {
                    // `DeError`'s `Display` prefixes every message: wrapped,
                    // the prefix would print twice.
                    let inner = e.to_string();
                    let inner = inner
                        .strip_prefix("deserialization error: ")
                        .unwrap_or(&inner);
                    DeError::custom(format!("field '{name}': {inner}"))
                })?,
            }
        }
        Ok(out)
    }
}

/// The allowed field closest to `key`, if any is close enough to be a
/// plausible misspelling (edit distance at most half the shorter length —
/// `reservation` → `reservations`, `widht` → `width`; an unrelated key
/// stays unmatched).
pub(crate) fn nearest<'a>(key: &str, allowed: &[&'a str]) -> Option<&'a str> {
    allowed
        .iter()
        .map(|&cand| (edit_distance(key, cand), cand))
        .min()
        .filter(|&(d, cand)| d <= (key.len().min(cand.len()) / 2).max(1))
        .map(|(_, cand)| cand)
}

/// Classic Levenshtein distance, small inputs only.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut row = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            row[j + 1] = subst.min(prev[j + 1] + 1).min(row[j] + 1);
        }
        std::mem::swap(&mut prev, &mut row);
    }
    prev[b.len()]
}

/// Anchor an error message that names a field (`… field 'name' …`) to the
/// first line of `text` where that field appears as a JSON *key* (the
/// quoted name followed by a colon — a string *value* that happens to spell
/// the same word does not anchor), returning `line N: message`. Messages
/// that name no locatable field pass through unchanged.
pub fn anchor_line(text: &str, message: &str) -> String {
    let Some(field) = quoted_field(message) else {
        return message.to_string();
    };
    let needle = format!("\"{field}\"");
    for (idx, line) in text.lines().enumerate() {
        let mut from = 0;
        while let Some(at) = line[from..].find(&needle) {
            let after = &line[from + at + needle.len()..];
            if after.trim_start().starts_with(':') {
                return format!("line {}: {}", idx + 1, message);
            }
            from += at + needle.len();
        }
    }
    message.to_string()
}

/// The first `'…'`-quoted word following the word "field" in a message.
fn quoted_field(message: &str) -> Option<&str> {
    let at = message.find("field '")?;
    let rest = &message[at + "field '".len()..];
    let end = rest.find('\'')?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(keys: &[&str]) -> Value {
        Value::Object(keys.iter().map(|&k| (k.to_string(), Value::Null)).collect())
    }

    #[test]
    fn accepts_known_fields_and_rejects_unknown_ones() {
        let allowed = &["machines", "jobs", "reservations"];
        assert!(check_fields(&obj(&["machines", "jobs"]), "spec", allowed).is_ok());
        let err = check_fields(&obj(&["reservation"]), "spec", allowed).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown field 'reservation' in spec"), "{msg}");
        assert!(msg.contains("did you mean 'reservations'?"), "{msg}");
        assert!(check_fields(&Value::Null, "spec", allowed).is_err());
    }

    #[test]
    fn suggestions_only_for_near_misses() {
        let allowed = &["width", "duration"];
        let far = check_fields(&obj(&["zzz"]), "req", allowed).unwrap_err();
        assert!(!far.to_string().contains("did you mean"), "{far}");
        let near = check_fields(&obj(&["widht"]), "req", allowed).unwrap_err();
        assert!(near.to_string().contains("did you mean 'width'?"), "{near}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn anchors_to_the_offending_line() {
        let text = "{\n  \"jobs\": 3,\n  \"reservation\": {}\n}";
        let anchored = anchor_line(text, "unknown field 'reservation' in sweep spec");
        assert_eq!(
            anchored,
            "line 3: unknown field 'reservation' in sweep spec"
        );
        // No locatable field: unchanged.
        assert_eq!(anchor_line(text, "something else"), "something else");
        assert_eq!(
            anchor_line(text, "unknown field 'gone' in spec"),
            "unknown field 'gone' in spec"
        );
    }

    #[test]
    fn anchoring_ignores_string_values_spelling_the_field_name() {
        // "reservation" appears first as a *value* (line 2); the key is on
        // line 4 — the anchor must point at the key.
        let text = "{\n  \"name\": \"reservation\",\n  \"jobs\": 3,\n  \"reservation\": {}\n}";
        assert_eq!(
            anchor_line(text, "unknown field 'reservation' in sweep spec"),
            "line 4: unknown field 'reservation' in sweep spec"
        );
    }
}
