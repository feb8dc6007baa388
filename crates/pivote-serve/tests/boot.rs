//! The `pivote-serve` binary itself, booted as a process:
//!
//! - `--data` streams the dump into a store whose `rank` and `search`
//!   answers are byte-equal to `Service::compute` over `parse` of the
//!   same file;
//! - a broken dump, a missing file and a byte that is not UTF-8 each stop
//!   the boot with a non-zero exit and a message, never a panic; a
//!   syntax error names `<path>:<line>:`.

use pivote_core::LiveStore;
use pivote_serve::{Client, Request, Service};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

const SAMPLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/sample.nt");

fn server() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_pivote-serve"));
    command
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    command
}

/// A spawned server, killed if the test fails before it shuts down.
struct Running(Child);

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Boot a server that must fail, and return its stderr.
fn failed_boot(data: &Path) -> String {
    let output = server()
        .arg("--data")
        .arg(data)
        .output()
        .expect("spawn pivote-serve");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        !output.status.success(),
        "{}: booted: {stderr}",
        data.display()
    );
    assert!(!stderr.contains("panicked"), "{}: {stderr}", data.display());
    stderr
}

/// A scratch dump under the temp directory, removed on drop.
struct Dump(PathBuf);

impl Dump {
    fn new(name: &str, bytes: &[u8]) -> Dump {
        let path = std::env::temp_dir().join(format!("pivote_boot_{}_{name}", std::process::id()));
        std::fs::write(&path, bytes).expect("write scratch dump");
        Dump(path)
    }
}

impl Drop for Dump {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn a_data_boot_answers_what_the_library_answers() {
    let mut child = server()
        .args(["--data", SAMPLE])
        .spawn()
        .expect("spawn pivote-serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut running = Running(child);
    let addr = loop {
        let mut line = String::new();
        let read = stderr.read_line(&mut line).expect("read stderr");
        assert!(read > 0, "the server exited before listening");
        if let Some(rest) = line.strip_prefix("pivote-serve: listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("an address")
                .to_owned();
        }
    };

    let nt = std::fs::read_to_string(SAMPLE).expect("bundled sample exists");
    let reference = Service::new(
        Arc::new(LiveStore::new(
            pivote_kg::parse(&nt).expect("sample parses"),
        )),
        false,
    );
    let snap = reference.snapshot();
    let mut client = Client::connect(&addr).expect("connect");
    for line in [
        r#"{"op":"rank","seeds":["Forrest_Gump"],"k_features":10,"k_entities":10}"#,
        r#"{"op":"search","query":"tom hanks","k":10}"#,
    ] {
        let wire = client.request_raw(line).expect(line);
        let want = reference
            .compute(&snap, &Request::parse(line).expect(line))
            .render();
        assert!(wire.starts_with(r#"{"ok":true"#), "{wire}");
        assert_eq!(wire, want, "{line}");
    }

    client.shutdown().expect("shutdown");
    let status = running.0.wait().expect("wait for exit");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("read stderr");
    assert!(status.success(), "{status}: {rest}");
}

#[test]
fn a_broken_dump_names_its_path_and_line() {
    let nt = "<http://x/a> <http://x/p> <http://x/b> .\n\
              # a comment is a line too\n\
              <http://x/a> <http://x/p> oops .\n\
              <http://x/c> <http://x/p> <http://x/d> .\n";
    let dump = Dump::new("broken.nt", nt.as_bytes());
    let stderr = failed_boot(&dump.0);
    let want = format!("{}:3: ", dump.0.display());
    assert!(stderr.contains(&want), "want {want:?} in {stderr}");
}

#[test]
fn a_missing_file_stops_the_boot() {
    let missing =
        std::env::temp_dir().join(format!("pivote_boot_{}_absent.nt", std::process::id()));
    let stderr = failed_boot(&missing);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn a_byte_that_is_not_utf8_stops_the_boot() {
    let mut bytes = b"<http://x/a> <http://x/p> <http://x/b> .\n".to_vec();
    bytes.extend_from_slice(b"<http://x/a> <http://x/p> \"caf\xE9\" .\n");
    let dump = Dump::new("latin1.nt", &bytes);
    let stderr = failed_boot(&dump.0);
    let want = format!("{}:2: ", dump.0.display());
    assert!(stderr.contains(&want), "want {want:?} in {stderr}");
}
