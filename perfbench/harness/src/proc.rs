//! Child processes of the benchmark: one-shot CLI runs timed to their
//! exit, and long-lived servers that are always stopped and reaped.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then 14
/// `long`s of which `ru_maxrss` (in KiB) is the first.
#[repr(C)]
#[allow(dead_code)] // only `maxrss` is read; the rest fixes the layout
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What a one-shot child left behind.
pub struct Exit {
    pub wall: Duration,
    pub ok: bool,
    /// Peak resident set of the child (`ru_maxrss`), in KiB.
    pub max_rss_kb: u64,
}

/// A command for the `ringjoin` binary with the thread-count variable
/// removed, so every child runs exactly the flags the workload names.
pub fn ringjoin(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.env_remove("RINGJOIN_THREADS");
    cmd
}

/// Spawns `cmd` and waits for it, timing spawn to exit and reading the
/// child's peak RSS from the kernel's accounting of the reaped process.
pub fn run_to_exit(cmd: &mut Command) -> io::Result<Exit> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on a
        // `Child` we do not ask it to), and both out-pointers refer to
        // live, properly sized locals for the duration of the call.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = start.elapsed();
    // The child is reaped; dropping the handle does not wait again.
    drop(child);
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Exit {
        wall,
        ok: exited_zero,
        max_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// A running `ringjoin serve` child. Dropping it kills and reaps it.
pub struct ServerProc {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `ringjoin serve` with `extra` flags on an ephemeral
    /// loopback port and waits until it has written its address file,
    /// which it does only once startup (and any log replay) is done.
    pub fn spawn(
        bin: &Path,
        extra: &[&str],
        addr_file: &Path,
        log: &Path,
    ) -> io::Result<ServerProc> {
        let _ = std::fs::remove_file(addr_file);
        let mut cmd = ringjoin(bin);
        cmd.arg("serve")
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(addr_file)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(log)?);
        let child = cmd.spawn()?;
        let mut proc = ServerProc {
            child: Some(child),
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(text) = std::fs::read_to_string(addr_file) {
                if let Some(line) = text.strip_suffix('\n') {
                    proc.addr = line.trim().parse().map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("addr file: {e}"))
                    })?;
                    return Ok(proc);
                }
            }
            if let Some(status) = proc
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(io::Error::other(format!(
                    "server exited during startup ({status}); see {}",
                    log.display()
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server did not start within 60 s",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set (`VmHWM`) of the live server, in KiB.
    pub fn vm_hwm_kb(&self) -> u64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    }

    /// SIGKILLs the server and reaps it.
    pub fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Waits up to `timeout` for a server told to shut down to exit,
    /// then kills it if it has not.
    pub fn wait_or_kill(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while let Some(child) = self.child.as_mut() {
            match child.try_wait() {
                Ok(Some(_)) | Err(_) => {
                    self.child = None;
                    return;
                }
                Ok(None) if Instant::now() > deadline => break,
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        self.kill();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

/// Copies the regular files of `from` (one level) into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.metadata()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}
