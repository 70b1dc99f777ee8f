//! Launching, probing and stopping a real `pnp_serve` daemon.

use pnp_serve::{Client, Request, Response, ServeStats};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a daemon may take to answer its first ping.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest a daemon may take to exit after `Shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// A running daemon with its control connection. Dropping it kills the
/// process if it is still running, and waits for it.
pub struct Daemon {
    child: Child,
    control: Client,
    /// `127.0.0.1:<port>` of its listener.
    pub addr: String,
    /// Where its standard output and error go.
    pub log: PathBuf,
}

/// The daemon binary next to this one, where `run.sh` builds it through the
/// repository's workspace.
pub fn binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let bin = exe.with_file_name("pnp_serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("daemon binary {} is missing", bin.display()))
    }
}

impl Daemon {
    /// Starts the daemon on the warm store `store` with its default
    /// settings, and waits until it answers a `Ping`. Returns the daemon
    /// and the seconds from launch until that answer.
    pub fn launch(
        bin: &Path,
        store: &Path,
        dir: &Path,
        tag: usize,
    ) -> Result<(Daemon, f64), String> {
        let port_file = dir.join(format!("port-{tag}"));
        let log = dir.join(format!("daemon-{tag}.log"));
        let out = File::create(&log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| format!("daemon log: {e}"))?;
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--store")
            .arg(store)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let port = loop {
            if let Some(port) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|text| text.trim().parse::<u16>().ok())
            {
                break port;
            }
            let failure = match child.try_wait() {
                Ok(Some(status)) => Some(format!("daemon exited during start-up ({status})")),
                Err(e) => Some(format!("daemon status: {e}")),
                Ok(None) if start.elapsed() > LAUNCH_TIMEOUT => {
                    Some("daemon did not start in time".to_string())
                }
                Ok(None) => None,
            };
            if let Some(why) = failure {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{why}; see {}", log.display()));
            }
            std::thread::sleep(Duration::from_micros(500));
        };
        let addr = format!("127.0.0.1:{port}");
        let control = match Client::connect(&addr) {
            Ok(control) => control,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("connect {addr}: {e}"));
            }
        };
        let mut daemon = Daemon {
            child,
            control,
            addr,
            log,
        };
        match daemon.control.request(&Request::Ping) {
            Ok(Response::Ok) => Ok((daemon, start.elapsed().as_secs_f64())),
            other => Err(format!("first ping failed: {other:?}")),
        }
    }

    /// The daemon's serving counters.
    pub fn stats(&mut self) -> Result<ServeStats, String> {
        match self.control.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(format!("Stats answered {other:?}")),
        }
    }

    /// Peak resident memory (`VmHWM`) of the daemon process, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to stop and waits until it has exited.
    pub fn shutdown(mut self) -> Result<(), String> {
        match self.control.request(&Request::Shutdown)? {
            Response::Ok => {}
            other => return Err(format!("Shutdown answered {other:?}")),
        }
        let asked = Instant::now();
        while asked.elapsed() < EXIT_TIMEOUT {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("daemon status: {e}")),
            }
        }
        Err("daemon did not exit after Shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mib(status_path: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {status_path}"))
}
