//! The server under test as a child process: spawn the release
//! `pivote-serve` binary, wait until it answers, read its `/proc`
//! counters, kill it.

use pivote_serve::Client;
use std::fs::File;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second behind `/proc/<pid>/stat`'s `utime` and
/// `stime` (`USER_HZ`, 100 on every Linux ABI).
const CLK_TCK: f64 = 100.0;

/// How long a server may take from spawn to its first answer.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// A port nothing listens on right now.
fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// A running `pivote-serve` child. Dropping it kills and reaps it.
pub struct Server {
    child: Child,
    addr: String,
    spawned: Instant,
}

impl Server {
    /// Start `bin --addr 127.0.0.1:<free port> <args>`, its stderr
    /// appended to `log`.
    pub fn spawn(bin: &Path, args: &[&str], log: &Path) -> io::Result<Server> {
        let addr = format!("127.0.0.1:{}", free_port()?);
        let stderr = File::options().create(true).append(true).open(log)?;
        let spawned = Instant::now();
        let child = Command::new(bin)
            .args(["--addr", &addr])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()?;
        Ok(Server {
            child,
            addr,
            spawned,
        })
    }

    pub fn connect(&self) -> io::Result<Client> {
        Client::connect(&self.addr)
    }

    /// Poll until the server answers `probe` with an `"ok":true` line.
    /// Returns the seconds from spawn to that answer, the answer, and
    /// the milliseconds the answered request itself took.
    pub fn wait_ready(&mut self, probe: &str) -> Result<Ready, String> {
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("server exited before answering: {status}"));
            }
            if self.spawned.elapsed() > READY_TIMEOUT {
                return Err("server did not answer in time".to_owned());
            }
            if let Ok(mut client) = self.connect() {
                let sent = Instant::now();
                if let Ok(answer) = client.request_raw(probe) {
                    if !is_ok(&answer) {
                        return Err(format!("ready probe refused: {answer}"));
                    }
                    return Ok(Ready {
                        ready_s: self.spawned.elapsed().as_secs_f64(),
                        first_ms: sent.elapsed().as_secs_f64() * 1e3,
                        answer,
                    });
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// One `{"op":"stats"}` round trip on a short-lived connection.
    pub fn stats(&self) -> Result<serde::Value, String> {
        let mut client = self.connect().map_err(|e| format!("stats connect: {e}"))?;
        client.stats().map_err(|e| format!("stats: {e}"))
    }

    /// Peak resident set so far (`VmHWM`), in MB.
    pub fn rss_peak_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()));
        status
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// CPU seconds (user + system) the process has used so far.
    pub fn cpu_s(&self) -> f64 {
        cpu_s_of(&self.child.id().to_string())
    }

    /// SIGKILL, then reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// What [`Server::wait_ready`] saw.
pub struct Ready {
    pub ready_s: f64,
    pub first_ms: f64,
    pub answer: String,
}

/// CPU seconds of `/proc/<pid>` (`pid` may be `self`).
pub fn cpu_s_of(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // the command name (field 2) may hold spaces: count from its `)`
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let field = |i: usize| -> f64 {
        after
            .split_whitespace()
            .nth(i)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15; `after` starts at field 3
    (field(11) + field(12)) / CLK_TCK
}

/// Whether a raw response line is a success response. Every `Reply`
/// renders `"ok"` first, so a prefix test is exact.
pub fn is_ok(response: &str) -> bool {
    response.starts_with(r#"{"ok":true"#)
}

/// The `"generation":N` of a raw response line, without parsing it.
pub fn generation_of(response: &str) -> Option<u64> {
    let (_, rest) = response.split_once(r#""generation":"#)?;
    let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

/// A scratch directory under the benchmark's output directory, removed
/// on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(out: &Path, tag: &str) -> io::Result<WorkDir> {
        let dir = out.join(format!("work-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_responses_are_read_without_parsing() {
        let line = r#"{"ok":true,"generation":417,"hits":[["A",-1.5]]}"#;
        assert!(is_ok(line));
        assert_eq!(generation_of(line), Some(417));
        assert!(!is_ok(r#"{"ok":false,"error":"x"}"#));
        assert_eq!(generation_of(r#"{"ok":true}"#), None);
    }

    #[test]
    fn own_cpu_time_is_readable() {
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_s_of("self") >= 0.0);
    }
}
