//! Building and running the real `wfdiff_serve` binary as its own process.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;

/// Builds `wfdiff_serve` (release, offline) from the checkout at `root` and
/// returns the executable's path.  Cargo's progress goes to stderr so the
/// benchmark's stdout stays machine-readable.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    if !root.join("crates/wfdiff-pdiffview/Cargo.toml").is_file() {
        return Err(format!(
            "{} is not a checkout of the repository (run from its root)",
            root.display()
        ));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "--quiet", "-p", "wfdiff-pdiffview"])
        .args(["--bin", "wfdiff_serve"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building wfdiff_serve failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("wfdiff_serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built wfdiff_serve not found at {}", bin.display()))
    }
}

/// A running server process; killed (SIGKILL) and reaped on drop.
pub struct Served {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl Served {
    /// Spawns `bin` over `store_dir` on an ephemeral loopback port with
    /// `threads` workers and waits for its `listening on` line, which it
    /// prints once the store is loaded and the socket is bound.
    pub fn spawn(bin: &Path, store_dir: &Path, threads: usize) -> Result<Served, String> {
        let mut child = Command::new(bin)
            .arg(store_dir)
            .arg("127.0.0.1:0")
            .arg(threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut reader = BufReader::new(stdout);
        let addr = match read_listen_addr(&mut reader) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        // Keep draining stdout so a late line can never block the server.
        let drain = std::thread::spawn(move || drain(reader));
        Ok(Served { child, drain: Some(drain), addr })
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Kills the server with SIGKILL — no shutdown path runs — and waits
    /// for it to exit.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop();
    }
}

fn read_listen_addr(reader: &mut BufReader<ChildStdout>) -> Result<SocketAddr, String> {
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("wfdiff_serve exited before listening".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("reading wfdiff_serve output: {e}")),
        }
        if let Some(rest) = line.split("listening on http://").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or_default();
            return addr.parse().map_err(|e| format!("bad listen address {addr:?}: {e}"));
        }
    }
}

fn drain(mut reader: BufReader<ChildStdout>) {
    let mut sink = [0u8; 4096];
    while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
}

/// Copies a store directory recursively, so each repetition starts from
/// the same bytes.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
