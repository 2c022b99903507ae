//! The line-delimited JSON protocol of `resa serve`: [`Op`] ⇄ JSON.
//!
//! One request per line, one JSON response per line; `SERVE_HELP` (what
//! `resa serve --help` prints) lists the requests. A request line is parsed
//! into an [`Op`] through the `WIRE` table — one row per op: its name, its
//! fields as a [`Section`] (the allow-list, the required fields, the
//! reading order and the error spellings all come from it) and how the
//! fields read become the op — applied through [`Session::apply`], and the
//! [`Reply`] rendered back.
//!
//! Unknown operations, unknown/misspelled fields (with a did-you-mean
//! suggestion), missing fields and infeasible requests are answered with
//! `{"ok":false,…}` without disturbing the resident state — rejected
//! reservation requests roll back transactionally through the substrate's
//! checkpoint marks, and requests whose instants or durations would
//! overflow the time axis are refused before they are journaled.

use crate::fields::{put, Field, Needs, Optional, Required, Section};
use resa_core::prelude::*;
use resa_sim::prelude::*;
use serde::{Serialize, Value};

/// A request's fields by wire name: what a `WIRE` row reads a request line
/// into and builds its op from. A required field's slot holds its value
/// once read; an optional one stays `None` unless given.
#[derive(Default)]
#[cfg_attr(test, derive(Serialize))]
struct Request {
    width: u32,
    duration: Dur,
    release: Option<Time>,
    deadline: Option<Time>,
    admission: Option<AdmissionPolicy>,
    start: Time,
    reservation: usize,
    not_before: Option<Time>,
    drain: usize,
    widths: Vec<u32>,
    area: u64,
    to: Time,
    since: Option<u64>,
    token: String,
}

/// Every field of the protocol: its name, whether an op that takes it
/// requires it, and its slot. `op` has no slot: the router routes on it
/// borrowed from the parsed line ([`op_name`]), so a row only checks that
/// it is a string, with any string field's error spelling.
const OP: Field<Request> = Required("op", |_, v| match v {
    Value::Str(_) => Ok(()),
    _ => put(&mut String::new(), v),
});
const WIDTH: Field<Request> = Required("width", |r, v| put(&mut r.width, v));
const DURATION: Field<Request> = Required("duration", |r, v| put(&mut r.duration, v));
const RELEASE: Field<Request> = Optional("release", |r, v| put(&mut r.release, v));
const DEADLINE: Field<Request> = Optional("deadline", |r, v| put(&mut r.deadline, v));
const ADMISSION: Field<Request> = Needs("admission", "deadline", |r, v| put(&mut r.admission, v));
const START: Field<Request> = Required("start", |r, v| put(&mut r.start, v));
const RESERVATION: Field<Request> = Required("reservation", |r, v| put(&mut r.reservation, v));
const NOT_BEFORE: Field<Request> = Optional("not_before", |r, v| put(&mut r.not_before, v));
const DRAIN: Field<Request> = Required("drain", |r, v| put(&mut r.drain, v));
const WIDTHS: Field<Request> = Required("widths", |r, v| put(&mut r.widths, v));
const AREA: Field<Request> = Required("area", |r, v| put(&mut r.area, v));
const TO: Field<Request> = Required("to", |r, v| put(&mut r.to, v));
const SINCE: Field<Request> = Optional("since", |r, v| put(&mut r.since, v));
const TOKEN: Field<Request> = Required("token", |r, v| put(&mut r.token, v));

/// One protocol op: its wire name, its fields in reading order, and the
/// op they build (`None`: `shutdown`, which ends the session).
struct Wire {
    name: &'static str,
    fields: Section<Request>,
    build: Option<fn(Request) -> Op>,
}

/// Every op of the protocol, in the order the `unknown op` message lists
/// them.
const WIRE: &[Wire] = &[
    Wire {
        name: "submit",
        // The deadline gate is read before the shape: its errors come first.
        fields: Section::new(
            "submit request",
            &[OP, DEADLINE, ADMISSION, WIDTH, DURATION, RELEASE],
        ),
        build: Some(|r| match r.deadline {
            None => Op::Submit {
                width: r.width,
                duration: r.duration,
                release: r.release,
            },
            Some(deadline) => Op::SubmitDeadline {
                width: r.width,
                duration: r.duration,
                release: r.release,
                deadline,
                admission: r.admission.unwrap_or_default(),
            },
        }),
    },
    Wire {
        name: "reserve",
        fields: Section::new("reserve request", &[OP, WIDTH, DURATION, START]),
        build: Some(|r| Op::Reserve {
            width: r.width,
            duration: r.duration,
            start: r.start,
        }),
    },
    Wire {
        name: "cancel",
        fields: Section::new("cancel request", &[OP, RESERVATION]),
        build: Some(|r| Op::Cancel { id: r.reservation }),
    },
    Wire {
        name: "query",
        fields: Section::new("query request", &[OP, WIDTH, DURATION, NOT_BEFORE]),
        build: Some(|r| Op::Query {
            width: r.width,
            duration: r.duration,
            not_before: r.not_before,
        }),
    },
    Wire {
        name: "inject",
        fields: Section::new("inject request", &[OP, WIDTH, DURATION, START]),
        build: Some(|r| Op::Inject {
            width: r.width,
            duration: r.duration,
            start: r.start,
        }),
    },
    Wire {
        name: "revoke",
        fields: Section::new("revoke request", &[OP, DRAIN]),
        build: Some(|r| Op::Revoke { id: r.drain }),
    },
    Wire {
        name: "submit_moldable",
        fields: Section::new("submit_moldable request", &[OP, WIDTHS, AREA]),
        build: Some(|r| Op::SubmitMoldable {
            widths: r.widths,
            area: r.area,
        }),
    },
    Wire {
        name: "advance",
        fields: Section::new("advance request", &[OP, TO]),
        build: Some(|r| Op::Advance { to: r.to }),
    },
    Wire {
        name: "drain",
        fields: Section::new("drain request", &[OP]),
        build: Some(|_| Op::Drain),
    },
    Wire {
        name: "stats",
        fields: Section::new("stats request", &[OP]),
        build: Some(|_| Op::Stats),
    },
    Wire {
        name: "snapshot",
        fields: Section::new("snapshot request", &[OP, SINCE]),
        build: Some(|r| Op::Records { since: r.since }),
    },
    Wire {
        name: "shutdown",
        fields: Section::new("shutdown request", &[OP]),
        build: None,
    },
];

/// The first request of a token-guarded session.
const AUTH: Section<Request> = Section::new("auth request", &[OP, TOKEN]);

/// Parse a request line and check its `op` (its row reads the rest).
fn read_request(line: &str) -> Result<Value, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    if value.as_object().is_none() {
        return Err("request must be a JSON object".to_string());
    }
    OP.read(&value, "request", &mut Request::default())?;
    Ok(value)
}

/// The `op` of a request [`read_request`] accepted.
fn op_name(request: &Value) -> &str {
    match request.get("op") {
        Some(Value::Str(op)) => op,
        _ => unreachable!("read_request checked that op is a string"),
    }
}

/// Parse one request line into its wire name and op (`None`: `shutdown`).
/// Errors are protocol-level strings (the session answers them with
/// `{"ok":false,…}` and keeps serving).
fn parse_request(line: &str) -> Result<(&'static str, Option<Op>), String> {
    let value = read_request(line)?;
    let op = op_name(&value);
    let Some(wire) = WIRE.iter().find(|w| w.name == op) else {
        let names: Vec<&str> = WIRE.iter().map(|w| w.name).collect();
        return Err(format!("unknown op '{op}' ({})", names.join("|")));
    };
    let request = wire.fields.read(&value, Request::default())?;
    Ok((wire.name, wire.build.map(|build| build(request))))
}

// -- responses --------------------------------------------------------------

type Fields = Vec<(&'static str, Value)>;

fn object(fields: Fields) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serialize a response value as one line of JSON.
pub(super) fn to_line(value: &Value) -> String {
    serde_json::to_string(value).expect("responses are serializable")
}

fn ok_response(op: &str, mut rest: Fields) -> String {
    let mut fields = vec![("ok", Value::Bool(true)), ("op", Value::Str(op.into()))];
    fields.append(&mut rest);
    to_line(&object(fields))
}

pub(super) fn error_response(op: Option<&str>, message: &str) -> String {
    let mut fields = vec![("ok", Value::Bool(false))];
    if let Some(op) = op {
        fields.push(("op", Value::Str(op.to_string())));
    }
    fields.push(("error", Value::Str(message.to_string())));
    to_line(&object(fields))
}

fn uint(n: impl TryInto<u64>) -> Value {
    Value::UInt(n.try_into().unwrap_or(u64::MAX))
}

fn effects_fields(effects: &Effects) -> Fields {
    let started = effects.started.iter().map(|p| {
        object(vec![
            ("job", uint(p.job.0)),
            ("start", uint(p.start.ticks())),
        ])
    });
    let completed = effects
        .completed
        .iter()
        .map(|&(id, at)| object(vec![("job", uint(id.0)), ("at", uint(at.ticks()))]));
    vec![
        ("started", Value::Array(started.collect())),
        ("completed", Value::Array(completed.collect())),
    ]
}

/// Render the answer to `op` (sent under the wire name `name`): the fields
/// the reply kind leads with, then the effects of a write. `policy` is only
/// asked by the replies that report it (a socket session reads it off the
/// published snapshot).
fn render(name: &str, op: &Op, reply: &WriteReply, policy: impl Fn() -> ReferencePolicy) -> String {
    let body = match &reply.result {
        Ok(body) => body,
        Err(e) => return error_response(Some(name), &e.to_string()),
    };
    let policy = || Value::Str(policy().name().to_string());
    let mut fields: Fields = match (op, body) {
        (_, Reply::Job { id, .. }) => vec![("job", uint(id.0))],
        (_, Reply::Reservation { id, .. }) => vec![("reservation", uint(*id))],
        // Effects alone answer the ops that name what they act on, and the
        // ones that move the clock.
        (Op::Cancel { id }, Reply::Effects(_)) => vec![("reservation", uint(*id))],
        (Op::Revoke { id }, Reply::Effects(_)) => vec![("drain", uint(*id))],
        (_, Reply::Effects(_)) => vec![("now", uint(reply.now.ticks()))],
        (_, Reply::Drained { id, preempted, .. }) => vec![
            ("drain", uint(*id)),
            (
                "preempted",
                Value::Array(preempted.iter().map(|j| uint(j.0)).collect()),
            ),
        ],
        (_, Reply::Deadline { id, outcome, .. }) => match *outcome {
            DeadlineOutcome::Committed { start, completion } => vec![
                ("job", uint(id.0)),
                ("outcome", Value::Str("committed".into())),
                ("start", uint(start.ticks())),
                ("completion", uint(completion.ticks())),
            ],
            DeadlineOutcome::Boosted => vec![
                ("job", uint(id.0)),
                ("outcome", Value::Str("boosted".into())),
            ],
        },
        (_, Reply::Moldable { id, choice, .. }) => vec![
            ("job", uint(id.0)),
            ("width", uint(choice.width)),
            ("duration", uint(choice.duration.0)),
        ],
        (Op::Query { duration, .. }, Reply::Query(Some(start))) => vec![
            ("start", uint(start.ticks())),
            ("completion", uint(start.saturating_add(*duration).ticks())),
        ],
        (_, Reply::Query(_)) => vec![("start", Value::Null)],
        (_, Reply::Stats(s)) => vec![
            ("now", uint(s.now.ticks())),
            ("machines", uint(s.machines)),
            ("policy", policy()),
            ("submitted", uint(s.submitted)),
            ("pending", uint(s.pending)),
            ("waiting", uint(s.waiting)),
            ("running", uint(s.running)),
            ("completed", uint(s.completed)),
            ("reservations", uint(s.reservations)),
            ("decisions", uint(s.decisions)),
            ("makespan", uint(s.makespan.ticks())),
        ],
        (_, Reply::Records(at)) => vec![
            ("now", uint(at.now.ticks())),
            ("machines", uint(at.machines)),
            ("policy", policy()),
            ("schedule", at.records.to_value()),
            ("metrics", at.metrics.to_value()),
        ],
    };
    if let Some(effects) = body.effects() {
        fields.extend(effects_fields(effects));
    }
    ok_response(name, fields)
}

/// Execute one request line against the session, producing the response
/// line (without trailing newline) and whether the session should end.
pub(crate) fn handle<S: Session + ?Sized>(session: &mut S, line: &str) -> (String, bool) {
    match parse_request(line) {
        Err(e) => (error_response(None, &e), false),
        Ok((name, None)) => (ok_response(name, Vec::new()), true),
        Ok((name, Some(op))) => {
            let reply = session.apply(&op);
            (render(name, &op, &reply, || session.policy()), false)
        }
    }
}

/// Validate the first request of a token-guarded session. Returns the
/// response line and whether the session may proceed.
pub(super) fn check_auth(expected: &str, line: &str) -> (String, bool) {
    let auth = (|| -> Result<Request, String> {
        let value = read_request(line)?;
        let op = op_name(&value);
        if op != "auth" {
            return Err(format!(
                "authentication required: the first request must be an auth op, got '{op}'"
            ));
        }
        AUTH.read(&value, Request::default())
    })();
    match auth {
        Ok(request) if request.token == expected => (ok_response("auth", Vec::new()), true),
        Ok(_) => (error_response(Some("auth"), "invalid token"), false),
        Err(e) => (error_response(Some("auth"), &e), false),
    }
}

/// The request line of `op`, written through its `WIRE` row: the row's
/// fields in order, each set to the op's value (an absent optional field
/// is left out). `None` for an op with no wire name.
#[cfg(test)]
pub(crate) fn request_line(op: &Op) -> Option<String> {
    let r = Request::default();
    let (name, request) = match op.clone() {
        Op::Submit {
            width,
            duration,
            release,
        } => (
            "submit",
            Request {
                width,
                duration,
                release,
                ..r
            },
        ),
        Op::SubmitDeadline {
            width,
            duration,
            release,
            deadline,
            admission,
        } => (
            "submit",
            Request {
                width,
                duration,
                release,
                deadline: Some(deadline),
                admission: Some(admission),
                ..r
            },
        ),
        Op::Reserve {
            width,
            duration,
            start,
        } => (
            "reserve",
            Request {
                width,
                duration,
                start,
                ..r
            },
        ),
        Op::Cancel { id } => (
            "cancel",
            Request {
                reservation: id,
                ..r
            },
        ),
        Op::Query {
            width,
            duration,
            not_before,
        } => (
            "query",
            Request {
                width,
                duration,
                not_before,
                ..r
            },
        ),
        Op::Inject {
            width,
            duration,
            start,
        } => (
            "inject",
            Request {
                width,
                duration,
                start,
                ..r
            },
        ),
        Op::Revoke { id } => ("revoke", Request { drain: id, ..r }),
        Op::SubmitMoldable { widths, area } => ("submit_moldable", Request { widths, area, ..r }),
        Op::Advance { to } => ("advance", Request { to, ..r }),
        Op::Drain => ("drain", Request { ..r }),
        Op::Stats => ("stats", Request { ..r }),
        Op::Records { since } => ("snapshot", Request { since, ..r }),
        Op::AdvanceClamped { .. } => return None,
    };
    let wire = WIRE.iter().find(|w| w.name == name)?;
    let values = request.to_value();
    let fields = wire.fields.fields.iter().filter_map(|field| {
        let value = match field.name() {
            "op" => &Value::Str(name.into()),
            other => values.get(other)?,
        };
        (*value != Value::Null).then(|| (field.name().to_string(), value.clone()))
    });
    Some(to_line(&Value::Object(fields.collect())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ops::{op_spec, OpSpec, View};
    use proptest::prelude::*;

    /// A minimal valid request per op of the table.
    const MINIMAL: &[&str] = &[
        r#"{"op":"submit","width":1,"duration":1}"#,
        r#"{"op":"reserve","width":1,"duration":1,"start":9}"#,
        r#"{"op":"cancel","reservation":0}"#,
        r#"{"op":"query","width":1,"duration":1}"#,
        r#"{"op":"inject","width":1,"duration":1,"start":9}"#,
        r#"{"op":"revoke","drain":0}"#,
        r#"{"op":"submit_moldable","widths":[1],"area":1}"#,
        r#"{"op":"advance","to":1}"#,
        r#"{"op":"drain"}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"snapshot"}"#,
        r#"{"op":"shutdown"}"#,
    ];

    /// Every op of the table parses from a minimal line, is answered under
    /// its own name, and is documented in `--help`; the `unknown op` error
    /// lists exactly the table.
    #[test]
    fn every_wire_op_parses_renders_and_is_documented() {
        assert_eq!(WIRE.len(), MINIMAL.len(), "one minimal line per op");
        let mut svc =
            ScheduleService::new(ReferencePolicy::Easy, AvailabilityTimeline::constant(4));
        for (wire, line) in WIRE.iter().zip(MINIMAL) {
            let (name, _) = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(name, wire.name);
            let (response, done) = handle(&mut svc, line);
            let ok = format!(r#"{{"ok":true,"op":"{}""#, wire.name);
            assert!(response.starts_with(&ok), "{line} answered {response}");
            assert_eq!(done, wire.name == "shutdown");
            let documented = format!(r#"{{"op":"{}""#, wire.name);
            assert!(
                super::super::SERVE_HELP.contains(&documented),
                "{} is missing from --help",
                wire.name
            );
        }
        let names: Vec<&str> = WIRE.iter().map(|w| w.name).collect();
        assert_eq!(
            parse_request(r#"{"op":"warp"}"#),
            Err(format!("unknown op 'warp' ({})", names.join("|")))
        );
    }

    /// One request line per error kind, with its exact reply: the
    /// protocol's error spellings, pinned.
    #[test]
    fn every_error_kind_keeps_its_spelling() {
        let mut svc =
            ScheduleService::new(ReferencePolicy::Easy, AvailabilityTimeline::constant(4));
        for (line, reply) in [
            (
                r#"{"op":"#,
                r#"{"ok":false,"error":"bad JSON: deserialization error: unexpected character at byte 6"}"#,
            ),
            (
                r#"[1]"#,
                r#"{"ok":false,"error":"request must be a JSON object"}"#,
            ),
            (
                r#"{"width":1}"#,
                r#"{"ok":false,"error":"missing required field 'op' in request"}"#,
            ),
            (
                r#"{"op":5}"#,
                r#"{"ok":false,"error":"field 'op' in request: deserialization error: expected string"}"#,
            ),
            (
                r#"{"op":"warp"}"#,
                r#"{"ok":false,"error":"unknown op 'warp' (submit|reserve|cancel|query|inject|revoke|submit_moldable|advance|drain|stats|snapshot|shutdown)"}"#,
            ),
            (
                r#"{"op":"submit","widht":2,"duration":5}"#,
                r#"{"ok":false,"error":"deserialization error: unknown field 'widht' in submit request (did you mean 'width'?)"}"#,
            ),
            (
                r#"{"op":"submit","width":2}"#,
                r#"{"ok":false,"error":"missing required field 'duration' in submit request"}"#,
            ),
            (
                r#"{"op":"submit","width":"two","duration":5}"#,
                r#"{"ok":false,"error":"field 'width' in submit request: deserialization error: expected u32"}"#,
            ),
            (
                r#"{"op":"submit","width":1,"duration":1,"admission":"boost"}"#,
                r#"{"ok":false,"error":"field 'admission' in submit request requires 'deadline'"}"#,
            ),
            (
                r#"{"op":"submit","width":1,"duration":1,"deadline":5,"admission":"fast"}"#,
                r#"{"ok":false,"error":"field 'admission' in submit request: deserialization error: unknown admission policy 'fast' (reject|boost)"}"#,
            ),
        ] {
            assert_eq!(handle(&mut svc, line), (reply.to_string(), false), "{line}");
        }
        for (line, reply) in [
            (
                r#"{"op":"stats"}"#,
                r#"{"ok":false,"op":"auth","error":"authentication required: the first request must be an auth op, got 'stats'"}"#,
            ),
            (
                r#"{"op":"auth","token":"nope"}"#,
                r#"{"ok":false,"op":"auth","error":"invalid token"}"#,
            ),
            (
                r#"{"op":"auth"}"#,
                r#"{"ok":false,"op":"auth","error":"missing required field 'token' in auth request"}"#,
            ),
            (
                r#"{"op":"auth","tokn":"s3cret"}"#,
                r#"{"ok":false,"op":"auth","error":"deserialization error: unknown field 'tokn' in auth request (did you mean 'token'?)"}"#,
            ),
        ] {
            assert_eq!(
                check_auth("s3cret", line),
                (reply.to_string(), false),
                "{line}"
            );
        }
        assert_eq!(
            check_auth("s3cret", r#"{"op":"auth","token":"s3cret"}"#),
            (r#"{"ok":true,"op":"auth"}"#.to_string(), true)
        );
    }

    /// Every field a row lists is read: the minimal line with that field
    /// set to a value no field accepts is refused with an error naming the
    /// field. (The row's one list is both the allow-list and the reads, so
    /// this holds by construction; it stays as the pin.)
    #[test]
    fn every_listed_field_is_read() {
        for (wire, line) in WIRE.iter().zip(MINIMAL) {
            for field in wire.fields.fields.iter().map(Field::name) {
                if field == "op" {
                    continue;
                }
                let mut request: Value = serde_json::from_str(line).unwrap();
                let Value::Object(entries) = &mut request else {
                    unreachable!("every minimal line is an object")
                };
                entries.retain(|(name, _)| name != field);
                entries.push((field.to_string(), Value::Object(Vec::new())));
                let request = to_line(&request);
                match parse_request(&request) {
                    Err(e) => assert!(
                        e.contains(&format!("'{field}'")),
                        "{request} was refused without naming '{field}': {e}"
                    ),
                    Ok(_) => panic!("{request} was accepted: '{field}' is listed but not read"),
                }
            }
        }
    }

    /// Every field of every row, the `auth` one's too, is named in `--help`.
    #[test]
    fn every_wire_field_is_documented() {
        let rows = WIRE.iter().map(|w| &w.fields).chain([&AUTH]);
        for field in rows.flat_map(|section| section.fields) {
            let quoted = format!("\"{}\"", field.name());
            assert!(
                super::super::SERVE_HELP.contains(&quoted),
                "{quoted} is missing from --help"
            );
        }
    }

    /// Across the generator's op space, `AdvanceClamped` (the `--realtime`
    /// tick) is the only op without a wire name, and the writer reaches
    /// every row that builds an op.
    #[test]
    fn advance_clamped_is_the_only_op_without_a_wire_name() {
        let view = View {
            now: Time(5),
            machines: 8,
            reservations: 2,
            drains: 1,
        };
        let mut written: Vec<&str> = Vec::new();
        for kind in 0..16 {
            for t in 0..64 {
                let spec = OpSpec {
                    kind,
                    width: 3,
                    dur: t,
                    t,
                };
                let op = spec.decode(&view);
                match request_line(&op) {
                    None => assert!(matches!(op, Op::AdvanceClamped { .. }), "{op:?}"),
                    Some(line) => written.push(parse_request(&line).unwrap().0),
                }
            }
        }
        let mut names: Vec<&str> = WIRE.iter().map(|w| w.name).collect();
        names.retain(|&name| name != "shutdown");
        written.sort_unstable();
        written.dedup();
        names.sort_unstable();
        assert_eq!(written, names);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The writer is the parser's inverse: every generated op with a
        /// wire name parses back from its request line.
        #[test]
        fn ops_round_trip_through_their_request_line(
            spec in op_spec(),
            now in 0u64..1000,
            machines in 1u32..32,
            windows in 0usize..4,
        ) {
            let view = View { now: Time(now), machines, reservations: windows, drains: windows };
            let op = spec.decode(&view);
            if let Some(line) = request_line(&op) {
                prop_assert_eq!(parse_request(&line).map(|(_, op)| op), Ok(Some(op)));
            }
        }
    }
}
