//! The systems under test, each in a child process: `s3pg-serve` and
//! `s3pg-convert`, plus the `VmHWM` reader for the server's peak memory.

use crate::wire::{JsonConn, J};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Where the shipped binaries were built.
pub fn binary(name: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("release").join(name)
}

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set of a live process, in MB (10^6 bytes).
pub fn vmhwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vmhwm_kb(&status).map(|kb| kb as f64 * 1024.0 / 1e6)
}

/// A running `s3pg-serve`.
pub struct Server {
    child: Child,
    pub addr: String,
    pub bolt_addr: String,
    /// Spawn until the first answered query.
    pub setup: Duration,
    /// Drains the rest of the child's stdout; joined on stop.
    drain: Option<std::thread::JoinHandle<()>>,
}

/// How a server is started.
pub struct ServeConfig<'a> {
    pub data: &'a Path,
    pub threads: usize,
    pub workers: usize,
    pub wal_dir: Option<&'a Path>,
}

impl Server {
    /// Spawn `s3pg-serve`, wait for its listeners, and time until `probe`
    /// (a query line) is answered with an `ok` frame.
    pub fn start(cfg: &ServeConfig<'_>, probe: &str) -> Result<Server, String> {
        let mut cmd = Command::new(binary("s3pg-serve"));
        cmd.arg("--data")
            .arg(cfg.data)
            .args(["--addr", "127.0.0.1:0", "--bolt-addr", "127.0.0.1:0"])
            .args(["--threads", &cfg.threads.to_string()])
            .args(["--workers", &cfg.workers.to_string()]);
        if let Some(dir) = cfg.wal_dir {
            cmd.arg("--wal-dir").arg(dir);
        }
        let started = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn s3pg-serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let mut report = Vec::new();
        let (mut addr, mut bolt_addr) = (None, None);
        while addr.is_none() || bolt_addr.is_none() {
            let Some(Ok(line)) = lines.next() else {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("s3pg-serve exited during startup: {report:?}"));
            };
            let word_after = |prefix: &str| {
                line.split(prefix)
                    .nth(1)
                    .and_then(|r| r.split_whitespace().next())
                    .map(str::to_string)
            };
            if line.starts_with("bolt listening on ") {
                bolt_addr = word_after("bolt listening on ");
            } else if line.starts_with("listening on ") {
                addr = word_after("listening on ");
            }
            report.push(line);
        }
        // The remaining stdout (the shutdown line) is drained by a thread
        // so the child never blocks on a full pipe.
        let drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        let addr = addr.expect("loop ends with addr");
        let mut server = Server {
            child,
            addr,
            bolt_addr: bolt_addr.expect("loop ends with bolt addr"),
            setup: Duration::ZERO,
            drain,
        };
        let answered = JsonConn::connect(&server.addr).and_then(|mut c| c.call(probe));
        server.setup = started.elapsed();
        match answered {
            Ok(frame) if frame.get("ok").and_then(J::as_bool) == Some(true) => Ok(server),
            other => {
                server.stop();
                Err(format!("first query failed: {:?}", other.err()))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak RSS so far, MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vmhwm_mb(self.pid())
    }

    /// Graceful shutdown through the protocol; kill if it does not exit
    /// within ten seconds. Always reaps the child.
    pub fn stop(mut self) {
        let _ = JsonConn::connect(&self.addr)
            .and_then(|mut c| c.call(&s3pg_server::protocol::Request::Shutdown.encode()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline && !matches!(self.child.try_wait(), Ok(Some(_))) {
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One finished `s3pg-convert` run.
pub struct Conversion {
    pub wall: Duration,
    pub success: bool,
    pub stdout: String,
}

/// Run `s3pg-convert` with `args` to completion.
pub fn convert(args: &[&str]) -> Result<Conversion, String> {
    let started = Instant::now();
    let out = Command::new(binary("s3pg-convert"))
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("run s3pg-convert: {e}"))?;
    Ok(Conversion {
        wall: started.elapsed(),
        success: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_parser_reads_the_kb_field() {
        let status =
            "Name:\ts3pg-serve\nVmPeak:\t  900000 kB\nVmHWM:\t  859244 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(859_244));
        assert_eq!(parse_vmhwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t garbage kB\n"), None);
    }

    #[test]
    fn vmhwm_of_this_process_is_positive() {
        let mb = vmhwm_mb(std::process::id()).expect("own /proc status is readable");
        assert!(mb > 0.0);
    }
}
