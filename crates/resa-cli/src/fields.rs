//! Strict field validation for the CLI's hand-rolled JSON surfaces.
//!
//! The vendored serde stand-in has no `#[serde(deny_unknown_fields)]`, so
//! the manual readers (sweep specs, serve requests) historically ignored
//! unknown keys — a misspelled `reservation` silently produced a
//! reservation-free sweep. This module provides the missing strictness:
//!
//! * a [`Section`] table declares a JSON object's fields once and reads
//!   it: the allow-list (a key outside it is refused with a did-you-mean
//!   suggestion for near-misses), the required fields, the reading order
//!   and the one `field '<name>' in <object>: …` wrapping of a bad value
//!   all come from the table, so each error kind is spelled the same way
//!   on every surface that reads through one;
//! * [`anchor_line`] maps an error that names a field back to the line of
//!   the original JSON text that introduced it, so the user gets
//!   `line 9: unknown field 'reservation' …` instead of a bare message.

use serde::{Deserialize, Value};

/// One row of a JSON object's field table: the field's name, and how its
/// value sets the object's struct `T`.
pub(crate) enum Field<T> {
    /// A field the object must have.
    Required(&'static str, SetField<T>),
    /// A field the object may leave out (or set to `null`).
    Optional(&'static str, SetField<T>),
    /// An optional field that may only be given beside the second one.
    Needs(&'static str, &'static str, SetField<T>),
}

/// How a field's value sets `T`; an error says what is wrong with the value.
type SetField<T> = fn(&mut T, &Value) -> Result<(), String>;

pub(crate) use Field::{Needs, Optional, Required};

/// Read a field's value as its type into `slot`.
pub(crate) fn put<X: Deserialize>(slot: &mut X, value: &Value) -> Result<(), String> {
    *slot = X::from_value(value).map_err(|e| e.to_string())?;
    Ok(())
}

impl<T> Field<T> {
    pub(crate) fn name(&self) -> &'static str {
        let (Required(name, _) | Optional(name, _) | Needs(name, ..)) = *self;
        name
    }

    /// Read this field of the object `value` (named `context` in errors)
    /// into `out`. An absent or `null` field keeps `out`'s value, or is an
    /// error when required.
    pub(crate) fn read(&self, value: &Value, context: &str, out: &mut T) -> Result<(), String> {
        let given = |name| value.get(name).filter(|v| **v != Value::Null);
        let (Required(name, set) | Optional(name, set) | Needs(name, _, set)) = *self;
        match (given(name), self) {
            (None, Required(..)) => Err(format!("missing required field '{name}' in {context}")),
            (None, _) => Ok(()),
            (Some(_), Needs(_, other, _)) if given(other).is_none() => {
                Err(format!("field '{name}' in {context} requires '{other}'"))
            }
            (Some(v), _) => set(out, v).map_err(|e| format!("field '{name}' in {context}: {e}")),
        }
    }
}

/// A JSON object's field table, read by [`Section::read`].
pub(crate) struct Section<T: 'static> {
    /// How errors name the object, e.g. `the 'failures' section`.
    pub(crate) context: &'static str,
    pub(crate) fields: &'static [Field<T>],
}

impl<T> Section<T> {
    pub(crate) const fn new(context: &'static str, fields: &'static [Field<T>]) -> Self {
        Section { context, fields }
    }

    /// Read the object `value` into `out`: a key outside the table is
    /// refused, then each field is read in table order.
    pub(crate) fn read(&self, value: &Value, mut out: T) -> Result<T, String> {
        check_fields(value, self.context, self.fields)?;
        for field in self.fields {
            field.read(value, self.context, &mut out)?;
        }
        Ok(out)
    }
}

/// Refuse any key of `value` (which must be an object) that no field of
/// `fields` names, naming the context and suggesting the nearest field.
fn check_fields<T>(value: &Value, context: &str, fields: &[Field<T>]) -> Result<(), String> {
    let Some(entries) = value.as_object() else {
        return Err(format!("{context} must be a JSON object"));
    };
    let known = |key: &String| fields.iter().any(|f| f.name() == key);
    let Some((key, _)) = entries.iter().find(|(key, _)| !known(key)) else {
        return Ok(());
    };
    let names: Vec<&str> = fields.iter().map(Field::name).collect();
    let suggestion = nearest(key, &names)
        .map(|s| format!(" (did you mean '{s}'?)"))
        .unwrap_or_default();
    // The serde prefix is part of this kind's spelling: `resa serve` has
    // always answered an unknown field with it.
    Err(format!(
        "deserialization error: unknown field '{key}' in {context}{suggestion}"
    ))
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

/// Anchor an error message that names fields (`… field 'name' …`) to a
/// line of `text` where a named field appears as a JSON *key* (the quoted
/// name followed by a colon — a string *value* that happens to spell the
/// same word does not anchor), returning `line N: message`. A nested error
/// names its fields outermost first (`field 'failures' in sweep spec:
/// field 'count' …`): each is looked up at or after the line of the one
/// before it, and the innermost one found is the anchor, so an inner key
/// missing from the text (a required field left out) falls back to its
/// section. Messages that name no locatable field pass through unchanged.
pub fn anchor_line(text: &str, message: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let mut anchor = None;
    for field in quoted_fields(message) {
        let needle = format!("\"{field}\"");
        let is_key = |line: &&str| {
            line.match_indices(&needle)
                .any(|(at, _)| line[at + needle.len()..].trim_start().starts_with(':'))
        };
        let from = anchor.unwrap_or(0);
        match lines[from..].iter().position(is_key) {
            Some(at) => anchor = Some(from + at),
            None => break,
        }
    }
    match anchor {
        Some(idx) => format!("line {}: {message}", idx + 1),
        None => message.to_string(),
    }
}

/// Every `'…'`-quoted word following the word "field" in a message, in
/// order.
fn quoted_fields(message: &str) -> impl Iterator<Item = &str> {
    message
        .split("field '")
        .skip(1)
        .filter_map(|rest| rest.split_once('\'').map(|(name, _)| name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(keys: &[&str]) -> Value {
        Value::Object(keys.iter().map(|&k| (k.to_string(), Value::Null)).collect())
    }

    fn allow(names: &[&'static str]) -> Vec<Field<()>> {
        names.iter().map(|&n| Optional(n, |_, _| Ok(()))).collect()
    }

    #[test]
    fn accepts_known_fields_and_rejects_unknown_ones() {
        let allowed = &allow(&["machines", "jobs", "reservations"]);
        assert!(check_fields(&obj(&["machines", "jobs"]), "spec", allowed).is_ok());
        let msg = check_fields(&obj(&["reservation"]), "spec", allowed).unwrap_err();
        assert!(msg.contains("unknown field 'reservation' in spec"), "{msg}");
        assert!(msg.contains("did you mean 'reservations'?"), "{msg}");
        assert!(check_fields(&Value::Null, "spec", allowed).is_err());
    }

    #[test]
    fn suggestions_only_for_near_misses() {
        let allowed = &allow(&["width", "duration"]);
        let far = check_fields(&obj(&["zzz"]), "req", allowed).unwrap_err();
        assert!(!far.contains("did you mean"), "{far}");
        let near = check_fields(&obj(&["widht"]), "req", allowed).unwrap_err();
        assert!(near.contains("did you mean 'width'?"), "{near}");
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
