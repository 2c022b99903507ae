//! The line-delimited JSON protocol of `resa serve`: [`Op`] ⇄ JSON.
//!
//! One request per line, one JSON response per line. A request line is
//! parsed into an [`Op`] through the `WIRE` table — the one list of op
//! names the parser matches on, the `unknown op` message quotes, and the
//! unit test below checks against `SERVE_HELP` — applied through
//! [`Session::apply`], and the [`Reply`] rendered back:
//!
//! ```text
//! {"op":"submit","width":2,"duration":10}        job arrival (optional "release";
//!                                                optional "deadline" + "admission"
//!                                                for SLA-gated submission)
//! {"op":"reserve","width":2,"duration":6,"start":4}
//! {"op":"cancel","reservation":0}
//! {"op":"query","width":4,"duration":5}          speculative earliest-fit probe
//! {"op":"inject","width":4,"duration":6,"start":9}   mid-run failure/maintenance
//! {"op":"revoke","drain":0}                      heal an injected drain early
//! {"op":"submit_moldable","widths":[1,2,4],"area":12} scheduler picks the width
//! {"op":"advance","to":20}                       move virtual time
//! {"op":"drain"}                                 run until every job completed
//! {"op":"stats"}                                 aggregate counters
//! {"op":"snapshot"}                              current schedule + metrics
//!                                                (optional "since" paginates
//!                                                records by job id)
//! {"op":"shutdown"}                              end the session
//! ```
//!
//! Unknown operations, unknown/misspelled fields (with a did-you-mean
//! suggestion), missing fields and infeasible requests are answered with
//! `{"ok":false,…}` without disturbing the resident state — rejected
//! reservation requests roll back transactionally through the substrate's
//! checkpoint marks, and requests whose instants or durations would
//! overflow the time axis are refused before they are journaled.

use crate::fields::check_fields;
use resa_core::prelude::*;
use resa_sim::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// One protocol op: its wire name, the fields it accepts, and how a
/// field-checked request becomes an [`Op`] (`None` ends the session).
struct Wire {
    name: &'static str,
    fields: &'static [&'static str],
    build: fn(&Value, &str) -> Result<Option<Op>, String>,
}

/// Every op of the protocol, in the order the `unknown op` message lists
/// them.
const WIRE: &[Wire] = &[
    Wire {
        name: "submit",
        fields: &[
            "op",
            "width",
            "duration",
            "release",
            "deadline",
            "admission",
        ],
        build: |v, ctx| {
            let deadline = optional(v, ctx, "deadline")?.map(Time);
            let admission = match optional::<String>(v, ctx, "admission")? {
                None => AdmissionPolicy::default(),
                Some(_) if deadline.is_none() => {
                    return Err(format!("field 'admission' in {ctx} requires 'deadline'"))
                }
                Some(text) => AdmissionPolicy::parse(&text)
                    .ok_or_else(|| format!("unknown admission policy '{text}' (reject|boost)"))?,
            };
            let width = required(v, ctx, "width")?;
            let duration = Dur(required(v, ctx, "duration")?);
            let release = optional(v, ctx, "release")?.map(Time);
            Ok(Some(match deadline {
                None => Op::Submit {
                    width,
                    duration,
                    release,
                },
                Some(deadline) => Op::SubmitDeadline {
                    width,
                    duration,
                    release,
                    deadline,
                    admission,
                },
            }))
        },
    },
    Wire {
        name: "reserve",
        fields: &["op", "width", "duration", "start"],
        build: |v, ctx| {
            Ok(Some(Op::Reserve {
                width: required(v, ctx, "width")?,
                duration: Dur(required(v, ctx, "duration")?),
                start: Time(required(v, ctx, "start")?),
            }))
        },
    },
    Wire {
        name: "cancel",
        fields: &["op", "reservation"],
        build: |v, ctx| {
            Ok(Some(Op::Cancel {
                id: required(v, ctx, "reservation")?,
            }))
        },
    },
    Wire {
        name: "query",
        fields: &["op", "width", "duration", "not_before"],
        build: |v, ctx| {
            Ok(Some(Op::Query {
                width: required(v, ctx, "width")?,
                duration: Dur(required(v, ctx, "duration")?),
                not_before: optional(v, ctx, "not_before")?.map(Time),
            }))
        },
    },
    Wire {
        name: "inject",
        fields: &["op", "width", "duration", "start"],
        build: |v, ctx| {
            Ok(Some(Op::Inject {
                width: required(v, ctx, "width")?,
                duration: Dur(required(v, ctx, "duration")?),
                start: Time(required(v, ctx, "start")?),
            }))
        },
    },
    Wire {
        name: "revoke",
        fields: &["op", "drain"],
        build: |v, ctx| {
            Ok(Some(Op::Revoke {
                id: required(v, ctx, "drain")?,
            }))
        },
    },
    Wire {
        name: "submit_moldable",
        fields: &["op", "widths", "area"],
        build: |v, ctx| {
            Ok(Some(Op::SubmitMoldable {
                widths: required(v, ctx, "widths")?,
                area: required(v, ctx, "area")?,
            }))
        },
    },
    Wire {
        name: "advance",
        fields: &["op", "to"],
        build: |v, ctx| {
            Ok(Some(Op::Advance {
                to: Time(required(v, ctx, "to")?),
            }))
        },
    },
    Wire {
        name: "drain",
        fields: &["op"],
        build: |_, _| Ok(Some(Op::Drain)),
    },
    Wire {
        name: "stats",
        fields: &["op"],
        build: |_, _| Ok(Some(Op::Stats)),
    },
    Wire {
        name: "snapshot",
        fields: &["op", "since"],
        build: |v, ctx| {
            Ok(Some(Op::Records {
                since: optional(v, ctx, "since")?,
            }))
        },
    },
    Wire {
        name: "shutdown",
        fields: &["op"],
        build: |_, _| Ok(None),
    },
];

/// Parse one request line into its wire name and op (`None`: `shutdown`).
/// Errors are protocol-level strings (the session answers them with
/// `{"ok":false,…}` and keeps serving).
fn parse_request(line: &str) -> Result<(&'static str, Option<Op>), String> {
    let value = parse_object(line)?;
    let op: String = required(&value, "request", "op")?;
    let Some(wire) = WIRE.iter().find(|w| w.name == op) else {
        let names: Vec<&str> = WIRE.iter().map(|w| w.name).collect();
        return Err(format!("unknown op '{op}' ({})", names.join("|")));
    };
    let ctx = format!("{op} request");
    check_fields(&value, &ctx, wire.fields).map_err(|e| e.to_string())?;
    Ok((wire.name, (wire.build)(&value, &ctx)?))
}

fn parse_object(line: &str) -> Result<Value, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    if value.as_object().is_none() {
        return Err("request must be a JSON object".to_string());
    }
    Ok(value)
}

fn required<T: Deserialize>(value: &Value, ctx: &str, name: &str) -> Result<T, String> {
    optional(value, ctx, name)?.ok_or_else(|| format!("missing required field '{name}' in {ctx}"))
}

fn optional<T: Deserialize>(value: &Value, ctx: &str, name: &str) -> Result<Option<T>, String> {
    match value.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => T::from_value(v)
            .map(Some)
            .map_err(|e| format!("field '{name}' in {ctx}: {e}")),
    }
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
pub(super) fn handle<S: Session + ?Sized>(session: &mut S, line: &str) -> (String, bool) {
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
    let auth = (|| -> Result<String, String> {
        let value = parse_object(line)?;
        let op: String = required(&value, "request", "op")?;
        if op != "auth" {
            return Err(format!(
                "authentication required: the first request must be an auth op, got '{op}'"
            ));
        }
        check_fields(&value, "auth request", &["op", "token"]).map_err(|e| e.to_string())?;
        required(&value, "auth request", "token")
    })();
    match auth {
        Ok(token) if token == expected => (ok_response("auth", Vec::new()), true),
        Ok(_) => (error_response(Some("auth"), "invalid token"), false),
        Err(e) => (error_response(Some("auth"), &e), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
