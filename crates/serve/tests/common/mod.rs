//! Shared harness for the crash/chaos suites: spawn the real
//! `durable_server` binary as a separate OS process (recovery across an
//! *actual* process boundary), optionally with environment knobs
//! (`MAGIC_FAULTS`, `MAGIC_SERVE_*`), and read its recovered base
//! state back through the `edge` passthrough view.

#![allow(dead_code)] // each test binary uses a subset of the harness

use magic_serve::PipeClient;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// A scratch store directory unique to this test process and name.
pub fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "magic-durable-restart-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The spawned server process; killed (if still alive) on drop.
pub struct ServerProc {
    pub child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn `durable_server <dir> <checkpoint_every>` and wait for its
    /// `ADDR` line, which it prints only after recovery completed and
    /// the listener is live.
    pub fn spawn(dir: &Path, checkpoint_every: u64) -> ServerProc {
        ServerProc::spawn_with_env(dir, checkpoint_every, &[])
    }

    /// [`ServerProc::spawn`] with extra environment variables — the
    /// carrier for `MAGIC_FAULTS` schedules and the `MAGIC_SERVE_*`
    /// overload knobs.  `MAGIC_FAULTS` is explicitly cleared first so
    /// a faulted run never leaks its schedule into a restart that
    /// passed an empty `envs`.
    pub fn spawn_with_env(dir: &Path, checkpoint_every: u64, envs: &[(&str, &str)]) -> ServerProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_durable_server"));
        cmd.arg(dir)
            .arg(checkpoint_every.to_string())
            .env_remove("MAGIC_FAULTS")
            .stdout(Stdio::piped());
        for (name, value) in envs {
            cmd.env(name, value);
        }
        let mut child = cmd.spawn().expect("spawn durable_server");
        let stdout = child.stdout.take().expect("child stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read ADDR line");
        let addr = line
            .trim()
            .strip_prefix("ADDR ")
            .unwrap_or_else(|| panic!("expected ADDR line, got {line:?}"))
            .parse()
            .expect("parse server address");
        ServerProc { child, addr }
    }

    /// SIGKILL — no shutdown hooks, no flushes, mid-anything.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The seed EDB the server binary starts from: a 16-edge chain.
pub fn seed_edges() -> BTreeSet<(String, String)> {
    (0..16)
        .map(|i| (format!("n{i}"), format!("n{}", i + 1)))
        .collect()
}

/// Read the whole recovered base relation back through the `edge`
/// passthrough view.
pub fn read_base(client: &mut PipeClient) -> BTreeSet<(String, String)> {
    client
        .query("edge(X, Y)")
        .expect("query edge(X, Y)")
        .rows
        .iter()
        .map(|row| (row[0].to_string(), row[1].to_string()))
        .collect()
}
