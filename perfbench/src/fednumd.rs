//! The system under test: the real `fednumd` binary as a child process.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::os;

/// How long a stopping daemon may take to flush and exit.
const STOP_GRACE: Duration = Duration::from_secs(30);

pub struct Fednumd {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

/// The daemon's exit, as its shutdown line reports it.
pub struct DaemonExit {
    pub protocol_errors: u64,
    pub timeouts: u64,
    pub rounds_committed: u64,
}

impl Fednumd {
    /// Spawns `bin` on an ephemeral loopback port and waits for its
    /// `listening` line. With `cpu` the daemon and all its threads run on
    /// that CPU only.
    pub fn spawn(bin: &Path, state_dir: Option<&Path>, cpu: Option<usize>) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        if let Some(cpu) = cpu {
            // SAFETY: the hook runs in the forked child before exec and
            // calls only sched_setaffinity, which is async-signal-safe.
            unsafe {
                cmd.pre_exec(move || os::pin_current(cpu));
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("fednumd exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("fednumd listening on ") {
                match addr.parse() {
                    Ok(addr) => break addr,
                    Err(_) => return Err(format!("unparsable listening line: {line}")),
                }
            }
        };
        Ok(Self {
            child,
            stdin,
            stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn peak_rss_mb(&self) -> f64 {
        os::peak_rss_mb(&self.pid().to_string())
    }

    /// Hangs up the daemon's stdin and waits for a clean exit: status 0
    /// and a parsable shutdown line.
    pub fn stop(mut self) -> Result<DaemonExit, String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + STOP_GRACE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("fednumd did not exit after hang-up".into());
                }
            }
        };
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if !status.success() {
            return Err(format!("fednumd exited with {status}"));
        }
        let served = rest
            .lines()
            .find(|l| l.starts_with("fednumd: served"))
            .ok_or("fednumd printed no shutdown line")?;
        Ok(DaemonExit {
            protocol_errors: count_before(served, " protocol error(s)")?,
            timeouts: count_before(served, " timeout(s)")?,
            rounds_committed: count_before(served, " committed")?,
        })
    }
}

impl Drop for Fednumd {
    fn drop(&mut self) {
        // A daemon not stopped through `stop` (an early error) is killed,
        // never left running.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The number printed just before `suffix` in `line`.
fn count_before(line: &str, suffix: &str) -> Result<u64, String> {
    let head = line
        .split(suffix)
        .next()
        .filter(|h| h.len() < line.len())
        .ok_or_else(|| format!("no `{suffix}` in shutdown line"))?;
    head.rsplit(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("no count before `{suffix}`"))
}
