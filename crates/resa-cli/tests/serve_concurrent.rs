//! Concurrent-transport tests of `resa serve`: multiple simultaneous
//! socket sessions against one resident service, `--token` first-line
//! authentication, and the `--realtime` wall-clock mode.
//!
//! These drive the real binary, like the socket tests in
//! `serve_session.rs`: the concurrency claims are about threads, sockets
//! and the single-writer service wired together, which only the binary
//! exercises end to end.

use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, Command, Stdio};

/// A free TCP port: bind to 0, read the assignment, release it. A race with
/// another process re-grabbing the port is possible but vanishingly
/// unlikely within the child's startup window.
fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("ephemeral bind")
        .local_addr()
        .expect("bound address")
        .port()
}

fn spawn_serve(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_resa"))
        .args(["serve"].iter().chain(args.iter()))
        .spawn()
        .expect("resa binary runs")
}

fn connect_tcp(port: u16) -> std::net::TcpStream {
    (0..100)
        .find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            std::net::TcpStream::connect(("127.0.0.1", port)).ok()
        })
        .expect("service came up within 2s")
}

#[cfg(unix)]
fn connect_unix(sock: &std::path::Path) -> std::os::unix::net::UnixStream {
    (0..100)
        .find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            std::os::unix::net::UnixStream::connect(sock).ok()
        })
        .expect("service came up within 2s")
}

/// Round-trip one request line over a socket-ish stream pair.
fn ask(writer: &mut impl std::io::Write, reader: &mut impl BufRead, request: &str) -> String {
    writer.write_all(request.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

/// Two sessions open at once against one `--listen` service: the second
/// client is served while the first is still connected (the pre-PR 7
/// transport handled one session at a time and would block it), and both
/// sessions observe one shared resident state.
#[test]
fn tcp_sessions_run_concurrently_against_shared_state() {
    let port = free_port();
    let mut child = spawn_serve(&["--machines", "8", "--listen", &format!("127.0.0.1:{port}")]);

    let a = connect_tcp(port);
    let mut a_writer = a.try_clone().unwrap();
    let mut a_reader = BufReader::new(a);
    let reply = ask(
        &mut a_writer,
        &mut a_reader,
        "{\"op\":\"submit\",\"width\":2,\"duration\":5}",
    );
    assert!(reply.contains("\"job\":0"), "{reply}");

    // Session A stays open while B connects, writes, and reads.
    let b = connect_tcp(port);
    let mut b_writer = b.try_clone().unwrap();
    let mut b_reader = BufReader::new(b);
    let reply = ask(
        &mut b_writer,
        &mut b_reader,
        "{\"op\":\"submit\",\"width\":1,\"duration\":3}",
    );
    assert!(
        reply.contains("\"job\":1"),
        "ids are shared and dense: {reply}"
    );

    // Both sessions see both submissions (B read its own write; A reads
    // B's through the published snapshot).
    let reply = ask(&mut a_writer, &mut a_reader, "{\"op\":\"stats\"}");
    assert!(reply.contains("\"submitted\":2"), "{reply}");
    let reply = ask(&mut b_writer, &mut b_reader, "{\"op\":\"stats\"}");
    assert!(reply.contains("\"submitted\":2"), "{reply}");

    // A query on A runs against the snapshot and must account for both
    // running jobs: 8 machines, 2+1 busy for 5/3 ticks, so an 8-wide job
    // fits only once both complete.
    let reply = ask(
        &mut a_writer,
        &mut a_reader,
        "{\"op\":\"query\",\"width\":8,\"duration\":2}",
    );
    assert!(reply.contains("\"start\":5"), "{reply}");

    // Shutdown from B ends the whole server.
    let reply = ask(&mut b_writer, &mut b_reader, "{\"op\":\"shutdown\"}");
    assert!(reply.contains("\"op\":\"shutdown\""), "{reply}");
    let status = child.wait().unwrap();
    assert!(status.success());
}

/// Requests whose durations or instants would overflow the time axis used
/// to panic the shared writer thread, after which every session got
/// `service writer has shut down` forever. They are refused with a
/// structured error — including the snapshot-side `query` — and a second
/// connection is served as if nothing happened.
#[test]
fn hostile_magnitudes_do_not_kill_the_shared_writer() {
    let port = free_port();
    let child = spawn_serve(&["--machines", "4", "--listen", &format!("127.0.0.1:{port}")]);
    let mut child = KillOnDrop(child);

    let a = connect_tcp(port);
    let mut a_writer = a.try_clone().unwrap();
    let mut a_reader = BufReader::new(a);
    let reply = ask(
        &mut a_writer,
        &mut a_reader,
        r#"{"op":"submit","width":4,"duration":10}"#,
    );
    assert!(
        reply.starts_with(r#"{"ok":true,"op":"submit","job":0"#),
        "{reply}"
    );
    for hostile in [
        r#"{"op":"submit","width":2,"duration":18446744073709551610}"#,
        r#"{"op":"submit","width":2,"duration":5,"release":18446744073709551615}"#,
        r#"{"op":"query","width":2,"duration":9,"not_before":18446744073709551610}"#,
    ] {
        let reply = ask(&mut a_writer, &mut a_reader, hostile);
        assert!(
            reply.starts_with(r#"{"ok":false,"op":""#) && reply.contains("overflow"),
            "{hostile} answered {reply}"
        );
    }
    let reply = ask(&mut a_writer, &mut a_reader, r#"{"op":"advance","to":10}"#);
    assert!(
        reply.contains(r#""completed":[{"job":0,"at":10}]"#),
        "{reply}"
    );

    let b = connect_tcp(port);
    let mut b_writer = b.try_clone().unwrap();
    let mut b_reader = BufReader::new(b);
    let reply = ask(
        &mut b_writer,
        &mut b_reader,
        r#"{"op":"submit","width":1,"duration":3}"#,
    );
    assert!(
        reply.starts_with(r#"{"ok":true,"op":"submit","job":1"#),
        "{reply}"
    );
    let reply = ask(&mut b_writer, &mut b_reader, r#"{"op":"shutdown"}"#);
    assert!(reply.contains(r#""op":"shutdown""#), "{reply}");
    assert!(child.0.wait().unwrap().success());
}

/// A client that pipelines requests and never reads its answers used to
/// pin its session thread in `write` forever once the socket buffers
/// filled. The idle timeout now bounds writes too: the server drops the
/// stalled session — the client sees a broken pipe instead of one write
/// timeout after another — while a second connection is answered
/// throughout.
#[cfg(unix)]
#[test]
fn a_client_that_stops_reading_is_dropped() {
    use std::io::ErrorKind;
    use std::time::{Duration, Instant};
    let sock = std::env::temp_dir().join(format!("resa-stalled-{}.sock", std::process::id()));
    let mut child = KillOnDrop(spawn_serve(&[
        "--machines",
        "4",
        "--unix",
        sock.to_str().unwrap(),
        "--idle-timeout",
        "1",
    ]));

    let b = connect_unix(&sock);
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut b_writer = b.try_clone().unwrap();
    let mut b_reader = BufReader::new(b);

    // The stalled client: writes (bounded by its own timeout), never reads.
    let mut stalled = connect_unix(&sock);
    stalled
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let batch = "{\"op\":\"snapshot\"}\n".repeat(64);
    let deadline = Instant::now() + Duration::from_secs(10);
    let dropped = loop {
        match stalled.write_all(batch.as_bytes()) {
            Ok(()) => {}
            // Our own timeout: the server is not reading either (yet).
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => {
                assert!(
                    matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset),
                    "unexpected write error: {e}"
                );
                break true;
            }
        }
        let reply = ask(&mut b_writer, &mut b_reader, r#"{"op":"stats"}"#);
        assert!(reply.starts_with(r#"{"ok":true,"op":"stats""#), "{reply}");
        if Instant::now() > deadline {
            break false;
        }
    };
    assert!(
        dropped,
        "the server never dropped the session it could not write to"
    );

    let reply = ask(&mut b_writer, &mut b_reader, r#"{"op":"shutdown"}"#);
    assert!(reply.contains(r#""op":"shutdown""#), "{reply}");
    assert!(child.0.wait().unwrap().success());
}

/// Ends the server when a test unwinds before its protocol `shutdown`, so a
/// failed assertion cannot leave a process holding the harness's pipes.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `snapshot` over the concurrent transport is served by the writer, out of
/// the published-snapshot path: two sessions write in a known serial order
/// (each waits for its reply before the other sends, advancing past the
/// 64-completion cadence at which the service drops availability history),
/// then `snapshot` with and without `since`, from either session, returns
/// exactly the bytes the sequential transport returns for that order.
#[cfg(unix)]
#[test]
fn snapshot_over_sockets_matches_the_sequential_transport() {
    let sock = std::env::temp_dir().join(format!("resa-serve-snap-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut child = KillOnDrop(spawn_serve(&[
        "--machines",
        "8",
        "--unix",
        sock.to_str().unwrap(),
    ]));
    let mut sessions: Vec<_> = (0..2)
        .map(|_| {
            let s = connect_unix(&sock);
            (s.try_clone().unwrap(), BufReader::new(s))
        })
        .collect();

    // 80 jobs per session, alternating; time moves one tick per pair and
    // the load stays under the cluster's capacity, so nearly every job has
    // completed by the end.
    let mut script = String::new();
    for i in 0..160u64 {
        let (w, r) = &mut sessions[(i % 2) as usize];
        let submit = format!(
            "{{\"op\":\"submit\",\"width\":{},\"duration\":{}}}",
            1 + i % 2,
            1 + i % 3
        );
        assert!(ask(w, r, &submit).contains("\"ok\":true"));
        script += &submit;
        script.push('\n');
        if i % 2 == 1 {
            let advance = format!("{{\"op\":\"advance\",\"to\":{}}}", i / 2 + 1);
            assert!(ask(w, r, &advance).contains("\"ok\":true"));
            script += &advance;
            script.push('\n');
        }
    }
    let probes = [
        "{\"op\":\"snapshot\"}",
        "{\"op\":\"snapshot\",\"since\":120}",
    ];
    script += &probes.join("\n");
    let expected = resa_cli::serve::run_script(
        &script,
        8,
        resa_sim::policy::ReferencePolicy::Easy,
        resa_cli::replay::Substrate::Timeline,
    );
    let expected: Vec<&str> = expected.lines().rev().take(2).collect();
    for (w, r) in &mut sessions {
        assert_eq!(ask(w, r, probes[0]).trim_end(), expected[1]);
        assert_eq!(ask(w, r, probes[1]).trim_end(), expected[0]);
    }
    assert!(expected[1].contains("{\"job\":120,"));
    assert!(expected[0].contains("{\"job\":121,") && !expected[0].contains("{\"job\":120,"));

    let (w, r) = &mut sessions[0];
    assert!(ask(w, r, "{\"op\":\"shutdown\"}").contains("\"op\":\"shutdown\""));
    assert!(child.0.wait().unwrap().success());
}

/// `--token` gates every socket session: unauthenticated ops are rejected
/// with a structured error and the connection closes; a wrong token is
/// rejected; the right token opens a normal session.
#[cfg(unix)]
#[test]
fn unix_sessions_require_the_token_first() {
    let sock = std::env::temp_dir().join(format!("resa-serve-auth-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut child = spawn_serve(&[
        "--machines",
        "4",
        "--unix",
        sock.to_str().unwrap(),
        "--token",
        "s3cret",
    ]);
    // 1. An op before auth: structured rejection, then the server closes
    //    the connection (EOF on the next read).
    let s = connect_unix(&sock);
    let mut w = s.try_clone().unwrap();
    let mut r = BufReader::new(s);
    let reply = ask(
        &mut w,
        &mut r,
        "{\"op\":\"submit\",\"width\":1,\"duration\":1}",
    );
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(reply.contains("authentication required"), "{reply}");
    let mut line = String::new();
    assert_eq!(r.read_line(&mut line).unwrap(), 0, "connection stayed open");

    // 2. A wrong token: rejected, closed.
    let s = connect_unix(&sock);
    let mut w = s.try_clone().unwrap();
    let mut r = BufReader::new(s);
    let reply = ask(&mut w, &mut r, "{\"op\":\"auth\",\"token\":\"wrong\"}");
    assert!(reply.contains("invalid token"), "{reply}");
    let mut line = String::new();
    assert_eq!(r.read_line(&mut line).unwrap(), 0, "connection stayed open");

    // 3. The right token: session proceeds normally. The two rejected
    //    connections must not have disturbed the resident state.
    let s = connect_unix(&sock);
    let mut w = s.try_clone().unwrap();
    let mut r = BufReader::new(s);
    let reply = ask(&mut w, &mut r, "{\"op\":\"auth\",\"token\":\"s3cret\"}");
    assert_eq!(reply.trim(), "{\"ok\":true,\"op\":\"auth\"}");
    let reply = ask(
        &mut w,
        &mut r,
        "{\"op\":\"submit\",\"width\":2,\"duration\":3}",
    );
    assert!(reply.contains("\"job\":0"), "{reply}");
    let reply = ask(&mut w, &mut r, "{\"op\":\"shutdown\"}");
    assert!(reply.contains("\"op\":\"shutdown\""), "{reply}");
    let status = child.wait().unwrap();
    assert!(status.success());
}

/// Run a `resa serve` that must refuse to start: exit code 1 within five
/// seconds (a server that came up instead is killed and fails the test),
/// stderr returned.
#[cfg(unix)]
fn refused_stderr(args: &[&str]) -> String {
    use std::io::Read as _;
    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_resa"))
            .args(["serve"].iter().chain(args.iter()))
            .stderr(Stdio::piped())
            .spawn()
            .expect("resa binary runs"),
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "resa serve {args:?} is serving instead of refusing"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(1), "resa serve {args:?}");
    let mut stderr = String::new();
    let mut pipe = child.0.stderr.take().expect("piped stderr");
    pipe.read_to_string(&mut stderr).unwrap();
    stderr
}

/// `--unix <path>` used to unlink whatever was at `<path>` before binding.
/// A regular file there is not the server's to delete: the command exits 1
/// and the file keeps its bytes.
#[cfg(unix)]
#[test]
fn unix_bind_refuses_a_path_that_is_not_a_socket() {
    let path = std::env::temp_dir().join(format!("resa-serve-notes-{}.txt", std::process::id()));
    std::fs::write(&path, b"data worth keeping").unwrap();
    let stderr = refused_stderr(&["--machines", "4", "--unix", path.to_str().unwrap()]);
    assert!(stderr.contains("exists and is not a socket"), "{stderr}");
    assert_eq!(std::fs::read(&path).unwrap(), b"data worth keeping");
    let _ = std::fs::remove_file(&path);
}

/// A second server on the socket of a live one used to unlink it, leaving
/// the first serving a path nobody could reach. It is refused, and the
/// first server still answers on that path.
#[cfg(unix)]
#[test]
fn unix_bind_refuses_the_socket_of_a_live_server() {
    let sock = std::env::temp_dir().join(format!("resa-serve-live-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let args = ["--machines", "4", "--unix", sock.to_str().unwrap()];
    let mut first = KillOnDrop(spawn_serve(&args));
    drop(connect_unix(&sock));

    let stderr = refused_stderr(&args);
    assert!(
        stderr.contains("another process is serving this socket"),
        "{stderr}"
    );

    let s = connect_unix(&sock);
    let mut w = s.try_clone().unwrap();
    let mut r = BufReader::new(s);
    let reply = ask(&mut w, &mut r, r#"{"op":"stats"}"#);
    assert!(reply.starts_with(r#"{"ok":true,"op":"stats""#), "{reply}");
    let reply = ask(&mut w, &mut r, r#"{"op":"shutdown"}"#);
    assert!(reply.contains(r#""op":"shutdown""#), "{reply}");
    assert!(first.0.wait().unwrap().success());
}

/// A socket nobody listens on — what a killed server leaves behind — is
/// stale: it is replaced without complaint, and a clean `shutdown` unlinks
/// the server's own socket again.
#[cfg(unix)]
#[test]
fn unix_bind_replaces_a_stale_socket() {
    let sock = std::env::temp_dir().join(format!("resa-serve-stale-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    drop(std::os::unix::net::UnixListener::bind(&sock).expect("bind the stale socket"));
    assert!(sock.exists(), "dropping a listener leaves its socket file");

    let mut child = KillOnDrop(spawn_serve(&[
        "--machines",
        "4",
        "--unix",
        sock.to_str().unwrap(),
    ]));
    let s = connect_unix(&sock);
    let mut w = s.try_clone().unwrap();
    let mut r = BufReader::new(s);
    let reply = ask(&mut w, &mut r, r#"{"op":"shutdown"}"#);
    assert!(reply.contains(r#""op":"shutdown""#), "{reply}");
    assert!(child.0.wait().unwrap().success());
    assert!(!sock.exists(), "a clean shutdown unlinks the socket");
}

/// `--realtime` over stdin: virtual time tracks the wall clock, so a
/// submitted 1-tick job is completed by the time a later request arrives.
#[test]
fn realtime_mode_tracks_the_wall_clock() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_resa"))
        .args(["serve", "--machines", "4", "--realtime"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("resa binary runs");
    let mut stdin = child.stdin.take().unwrap();
    stdin
        .write_all(b"{\"op\":\"submit\",\"width\":1,\"duration\":1}\n")
        .unwrap();
    stdin.flush().unwrap();
    // Let >= 1 ms of wall clock pass so the next request's tick completes
    // the job (1 tick = 1 ms).
    std::thread::sleep(std::time::Duration::from_millis(100));
    stdin
        .write_all(b"{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n")
        .unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stats = stdout
        .lines()
        .find(|l| l.contains("\"op\":\"stats\""))
        .expect("stats line");
    assert!(stats.contains("\"completed\":1"), "{stats}");
    let now: u64 = stats
        .split("\"now\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .expect("now field");
    assert!(
        now >= 1,
        "virtual time did not track the wall clock: {stats}"
    );
}

/// Flag combinations that make no sense are usage errors, in-process.
#[test]
fn concurrency_flags_are_validated() {
    assert!(matches!(
        resa_cli::run(&["serve", "--script", "x", "--realtime"]),
        Err(resa_cli::CliError::Usage(_))
    ));
    assert!(matches!(
        resa_cli::run(&["serve", "--script", "x", "--token", "t"]),
        Err(resa_cli::CliError::Usage(_))
    ));
    assert!(matches!(
        resa_cli::run(&["serve", "--token", "t"]),
        Err(resa_cli::CliError::Usage(_)),
    ));
    assert!(matches!(
        resa_cli::run(&["serve", "--realtime", "--listen"]),
        Err(resa_cli::CliError::Usage(_)),
    ));
}
