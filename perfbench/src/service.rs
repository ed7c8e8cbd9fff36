//! The `service` workload: an in-process attack daemon
//! (`trilock_serve::spawn`) with two workers, one submitting connection and
//! one watching connection. A batch is one `campaign-cell` job per cell seed
//! on the satbench circuit file, submitted together and then drained; every
//! job is watched on the same connection, so the benchmark sees the per-DIP
//! progress events the daemon fans out.

use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use attacks::{AttackStatus, SatAttack};
use netlist::Netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use trilock::{KeySequence, LockedCircuit, TriLockConfig};
use trilock_serve::{
    AttackParams, Client, DaemonConfig, DaemonHandle, JobSpec, Json, PROTOCOL_VERSION,
};

use crate::cell::{ALPHA, KAPPA_F, KAPPA_S};
use crate::trace::Tracer;

/// Worker threads of the daemon.
pub const WORKERS: usize = 2;
/// Longest a batch may take before it counts as failed.
const BATCH_TIMEOUT: Duration = Duration::from_secs(120);

/// The attack settings of the `attack` workload, at the daemon's default
/// checkpoint cadence.
pub fn params() -> AttackParams {
    let config = crate::cell::attack_config(KAPPA_S, KAPPA_S + KAPPA_F);
    AttackParams {
        initial_unroll: config.initial_unroll,
        max_unroll: config.max_unroll,
        verify_sequences: config.verify_sequences,
        verify_cycles: config.verify_cycles,
        progress_every: 1,
        ..AttackParams::default()
    }
}

/// One event line the watching connection received.
struct Event {
    job: u64,
    kind: String,
    at: Instant,
    line: Json,
}

/// A running daemon with its two client connections.
pub struct Service {
    pub circuit: PathBuf,
    client: Option<Client>,
    handle: Option<DaemonHandle>,
    watch: UnixStream,
    events: Receiver<Event>,
    reader: Option<JoinHandle<()>>,
}

/// Timing and result of one job, as the client saw it.
pub struct JobRun {
    pub id: u64,
    pub seed: u64,
    pub latency_s: f64,
    pub daemon_elapsed_s: f64,
    pub events: usize,
    pub progress_intervals: Vec<f64>,
    pub status: String,
    pub key: Option<String>,
}

/// One drained batch.
pub struct Batch {
    pub wall_s: f64,
    pub jobs: Vec<JobRun>,
}

impl Service {
    /// Writes the circuit to `dir`, spawns the daemon on a socket there and
    /// connects both clients.
    pub fn start(dir: &Path, circuit_text: &str) -> Result<Service, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let circuit = dir.join("satbench.bench");
        std::fs::write(&circuit, circuit_text).map_err(|e| e.to_string())?;
        let mut config = DaemonConfig::new(dir.join("daemon.sock"), dir.join("state"));
        config.workers = WORKERS;
        config.queue_capacity = 64;
        let handle = trilock_serve::spawn(config.clone());
        let client = connect(&config.socket)?;
        let watch = UnixStream::connect(&config.socket).map_err(|e| e.to_string())?;
        let read_half = watch.try_clone().map_err(|e| e.to_string())?;
        let (tx, events) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(read_half);
            while let Ok(Some(text)) = trilock_serve::client::read_server_line(&mut reader) {
                let at = Instant::now();
                let Ok(line) = Json::parse(&text) else {
                    continue;
                };
                if line.get("type").and_then(Json::as_str) != Some("event") {
                    continue;
                }
                let job = line.get("job").and_then(Json::as_u64).unwrap_or(0);
                let kind = line
                    .get("event")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                if tx
                    .send(Event {
                        job,
                        kind,
                        at,
                        line,
                    })
                    .is_err()
                {
                    break;
                }
            }
        });
        Ok(Service {
            circuit,
            client: Some(client),
            handle: Some(handle),
            watch,
            events,
            reader: Some(reader),
        })
    }

    /// Submits one job per seed, watches each, and waits for all of them.
    pub fn batch(&mut self, seeds: &[u64], tr: &mut Tracer, group: &str) -> Result<Batch, String> {
        let client = self.client.as_mut().ok_or("daemon already stopped")?;
        let start = Instant::now();
        let mut pending = Vec::new();
        for &seed in seeds {
            let spec = JobSpec::CampaignCell {
                circuit: self.circuit.clone(),
                kappa_s: KAPPA_S,
                kappa_f: KAPPA_F,
                seed,
                alpha: ALPHA,
                attack: params(),
            };
            let submitted = Instant::now();
            let id = client.submit(&spec).map_err(|e| format!("submit: {e}"))?;
            let accepted = Instant::now();
            let watch = Json::obj([
                ("v", PROTOCOL_VERSION.into()),
                ("cmd", "watch".into()),
                ("job", id.into()),
            ]);
            writeln!(self.watch, "{watch}").map_err(|e| format!("watch: {e}"))?;
            pending.push(Pending {
                id,
                seed,
                submitted,
                accepted,
                started: None,
                done: None,
                events: 0,
                progress: Vec::new(),
            });
        }
        while pending.iter().any(|p| p.done.is_none()) {
            let left = BATCH_TIMEOUT.saturating_sub(start.elapsed());
            let event = self
                .events
                .recv_timeout(left)
                .map_err(|_| "batch timed out waiting for job events".to_string())?;
            let Some(job) = pending.iter_mut().find(|p| p.id == event.job) else {
                continue;
            };
            job.events += 1;
            match event.kind.as_str() {
                "started" => job.started = job.started.or(Some(event.at)),
                "progress" => job.progress.push(event.at),
                "done" | "failed" | "cancelled" => job.done = Some((event.at, event)),
                _ => {}
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let jobs = pending.into_iter().map(|p| p.finish(tr, group)).collect();
        Ok(Batch { wall_s, jobs })
    }
}

/// Polls the socket until the daemon accepts, finely enough that set-up
/// time measures the daemon coming up rather than a retry interval.
fn connect(socket: &Path) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(socket) {
            Ok(client) => return Ok(client),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("daemon did not come up: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}

/// Shuts the daemon down and joins its thread and the event reader.
/// Errors are ignored: a daemon that fails to shut down cleanly has already
/// delivered every result the run checks.
impl Drop for Service {
    fn drop(&mut self) {
        if let Some(mut client) = self.client.take() {
            let _ = client.shutdown();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = self.watch.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

struct Pending {
    id: u64,
    seed: u64,
    submitted: Instant,
    accepted: Instant,
    started: Option<Instant>,
    done: Option<(Instant, Event)>,
    events: usize,
    progress: Vec<Instant>,
}

impl Pending {
    fn finish(self, tr: &mut Tracer, group: &str) -> JobRun {
        let (done_at, done) = self.done.expect("batch waits for every terminal event");
        let started = self.started.unwrap_or(done_at);
        let group = format!("{group}-job{}", self.id);
        let job_span = tr.record("serve.job", &group, None, self.submitted, done_at);
        tr.record(
            "serve.submit",
            &group,
            job_span,
            self.submitted,
            self.accepted,
        );
        tr.record(
            "serve.queue_wait",
            &group,
            job_span,
            self.submitted,
            started,
        );
        tr.record("serve.run", &group, job_span, started, done_at);
        let field = |name: &str| {
            done.line
                .get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let status = if done.kind == "done" {
            field("status").unwrap_or_default()
        } else {
            done.kind.clone()
        };
        JobRun {
            id: self.id,
            seed: self.seed,
            latency_s: done_at.duration_since(self.submitted).as_secs_f64(),
            daemon_elapsed_s: done
                .line
                .get("elapsed_ms")
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
                / 1e3,
            events: self.events,
            progress_intervals: self
                .progress
                .windows(2)
                .map(|w| w[1].duration_since(w[0]).as_secs_f64())
                .collect(),
            status,
            key: field("key"),
        }
    }
}

/// The in-process result of one campaign cell, computed the way the daemon
/// computes it (lock with `seed`, attack with `seed + 1`).
pub struct Reference {
    pub original: Netlist,
    pub locked: LockedCircuit,
    pub key: KeySequence,
}

/// Runs every cell in-process, on two threads.
pub fn references(circuit: &Path, seeds: &[u64]) -> Vec<Result<Reference, String>> {
    let one = |seed: u64| -> Result<Reference, String> {
        let original = trilock_io::read_circuit(circuit).map_err(|e| e.to_string())?;
        let config = TriLockConfig::new(KAPPA_S, KAPPA_F).with_alpha(ALPHA);
        let mut rng = StdRng::seed_from_u64(seed);
        let locked = trilock::lock(&original, &config, &mut rng)
            .map_err(|e| e.to_string())?
            .locked;
        let attack = SatAttack::new(&original, &locked.netlist, locked.kappa())
            .map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let outcome = attack
            .run(&params().to_config(), &mut rng)
            .map_err(|e| e.to_string())?;
        let AttackStatus::KeyFound(key) = outcome.status else {
            return Err(format!(
                "in-process cell {seed} ended with {:?}",
                outcome.status
            ));
        };
        Ok(Reference {
            original,
            key,
            locked,
        })
    };
    let one = &one;
    std::thread::scope(|scope| {
        let workers: Vec<_> = seeds
            .chunks(seeds.len().div_ceil(2).max(1))
            .map(|part| {
                let worker = scope.spawn(move || part.iter().map(|&s| one(s)).collect::<Vec<_>>());
                (part.len(), worker)
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|(len, worker)| {
                worker.join().unwrap_or_else(|_| {
                    (0..len)
                        .map(|_| Err("reference thread panicked".to_string()))
                        .collect()
                })
            })
            .collect()
    })
}

/// Correctness gate for one job: a key was found, it equals the in-process
/// key of the same cell, and it restores function on a fresh seed.
pub fn check(
    job: &JobRun,
    reference: &Result<Reference, String>,
    validation_seed: u64,
) -> Result<(), String> {
    let reference = reference.as_ref().map_err(Clone::clone)?;
    if job.status != "key-found" {
        return Err(format!(
            "job {} (cell seed {}) ended {}",
            job.id, job.seed, job.status
        ));
    }
    let key = job.key.as_deref().unwrap_or("");
    if key != reference.key.to_string() {
        return Err(format!(
            "job {} key {key} differs from the in-process key {}",
            job.id, reference.key
        ));
    }
    let mut rng = StdRng::seed_from_u64(validation_seed);
    let cex = sim::equiv::key_restores_function(
        &reference.original,
        &reference.locked.netlist,
        reference.key.cycles(),
        reference.locked.kappa() + 16,
        128,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    match cex {
        Some(_) => Err(format!("cell {} key fails re-validation", job.seed)),
        None => Ok(()),
    }
}
