//! The server under test as a child process.
//!
//! The benchmark binary re-executes itself with `--cli serve ...`, which
//! hands the arguments to `ikrq_cli::run_args` — the same code path as the
//! `ikrq` binary, so loading a venue has no second implementation here. The
//! child is killed and reaped when its [`ChildServer`] is dropped, including
//! on a panic unwind, so a failed run never leaves a server behind.

use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running server child and the address it bound.
pub struct ChildServer {
    child: Option<Child>,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl ChildServer {
    /// Spawns `exe --cli <args>`, reads its stderr until the
    /// `http://HOST:PORT` listening line and returns once the server is
    /// bound. Any failure kills the child before returning.
    pub fn spawn(exe: &Path, args: &[String], timeout: Duration) -> io::Result<ChildServer> {
        let child = Command::new(exe)
            .arg("--cli")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut server = ChildServer {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: None,
        };
        let stderr = server
            .child
            .as_mut()
            .and_then(|c| c.stderr.take())
            .expect("stderr was piped");
        let mut reader = BufReader::new(stderr);
        let deadline = Instant::now() + timeout;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server exited before printing its listening line",
                ));
            }
            if let Some(addr) = parse_listening_line(&line) {
                server.addr = addr;
                break;
            }
            // Warnings (a degraded venue load, say) are passed through.
            eprint!("server: {line}");
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server did not print a listening line in time",
                ));
            }
        }
        // Keep draining so the child never blocks on a full pipe; the
        // thread ends at EOF, when the child is gone.
        server.drain = Some(std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
            if !sink.is_empty() {
                eprint!("server: {}", String::from_utf8_lossy(&sink));
            }
        }));
        Ok(server)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("server is running").id()
    }

    /// The child's peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        status.lines().find_map(|line| {
            line.strip_prefix("VmHWM:")?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()
        })
    }

    /// Kills the child and waits for it and its drain thread to end.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Extracts `HOST:PORT` from a `... http://HOST:PORT ...` line.
fn parse_listening_line(line: &str) -> Option<SocketAddr> {
    let rest = line.split("http://").nth(1)?;
    let end = rest
        .find(|c: char| c.is_whitespace() || c == '(' || c == '/')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in child that prints a listening line and then sleeps.
    fn fake_server(dir: &Path) -> std::path::PathBuf {
        let script = dir.join("fake-server.sh");
        std::fs::write(
            &script,
            "#!/bin/sh\necho 'listening on http://127.0.0.1:9 (test)' >&2\nexec sleep 30\n",
        )
        .unwrap();
        let mut perms = std::fs::metadata(&script).unwrap().permissions();
        std::os::unix::fs::PermissionsExt::set_mode(&mut perms, 0o755);
        std::fs::set_permissions(&script, perms).unwrap();
        script
    }

    fn alive(pid: u32) -> bool {
        // A reaped child has no /proc entry; a zombie would still show.
        Path::new(&format!("/proc/{pid}")).exists()
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn listening_lines_parse() {
        assert_eq!(
            parse_listening_line("ikrq-server listening on http://127.0.0.1:8080 (protocol v1)\n"),
            Some("127.0.0.1:8080".parse().unwrap())
        );
        assert_eq!(parse_listening_line("warning: nothing here\n"), None);
    }

    #[test]
    fn a_panicking_run_leaves_no_orphaned_server() {
        let dir = scratch_dir("panic");
        let exe = fake_server(&dir);
        let server = ChildServer::spawn(&exe, &[], Duration::from_secs(10)).unwrap();
        let pid = server.pid();
        assert_eq!(server.addr(), "127.0.0.1:9".parse().unwrap());
        assert!(alive(pid));
        let started = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _server = server;
            panic!("the run failed mid-measurement");
        }));
        assert!(result.is_err());
        assert!(!alive(pid), "server {pid} outlived the panicking run");
        assert!(started.elapsed() < Duration::from_secs(5));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stop_kills_and_reaps() {
        let dir = scratch_dir("stop");
        let exe = fake_server(&dir);
        let server = ChildServer::spawn(&exe, &[], Duration::from_secs(10)).unwrap();
        let pid = server.pid();
        server.stop();
        assert!(!alive(pid));
        let _ = std::fs::remove_dir_all(dir);
    }
}
