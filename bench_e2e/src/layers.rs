//! Layer costs measured outside the workflow, in the same invocation:
//! the wire codec replayed on the workload's own captured sim chunks, a
//! plain loopback socket moving the same bytes, and the simulation alone.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sb_data::compress::{lz_compress, lz_decompress};
use sb_data::wire::{decode_chunk_interned, encode_chunk_interned, MetaDefs, MetaInternTable};
use sb_data::Chunk;
use sb_stream::Compression;

use crate::workload::Workload;

/// Codec time for one sim step's chunks (all ranks), in ms, from one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecCost {
    /// `encode_chunk_interned` with no compression: framing plus the
    /// little-endian payload copy.
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub lz_compress_ms: f64,
    pub lz_decompress_ms: f64,
}

/// Times the codec on `chunks` (captured over `steps` steps), repeating
/// passes until about `budget` has elapsed and keeping each operation's
/// median pass.
pub fn replay_codec(chunks: &[Chunk], steps: usize, budget: Duration) -> CodecCost {
    if chunks.is_empty() || steps == 0 {
        return CodecCost::default();
    }
    let mut table = MetaInternTable::new();
    let ids: Vec<u32> = chunks
        .iter()
        .map(|c| table.intern(&c.meta).expect("captured chunk meta interns"))
        .collect();
    let mut defs_buf = Vec::new();
    table.append_defs_since(0, &mut defs_buf);
    let mut defs = MetaDefs::new();
    let mut cur = &defs_buf[..];
    while !cur.is_empty() {
        defs.decode_def(&mut cur).expect("own definitions decode");
    }
    let raws: Vec<Vec<u8>> = chunks.iter().map(|c| c.data.to_le_bytes()).collect();
    let packed: Vec<Vec<u8>> = raws.iter().map(|r| lz_compress(r)).collect();
    let mut frames: Vec<Vec<u8>> = vec![Vec::new(); chunks.len()];

    let (mut enc, mut dec, mut lzc, mut lzd) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while enc.len() < 3 || (start.elapsed() < budget && enc.len() < 200) {
        let t = Instant::now();
        for ((chunk, id), frame) in chunks.iter().zip(&ids).zip(&mut frames) {
            frame.clear();
            encode_chunk_interned(frame, chunk, *id, Compression::None).expect("chunk encodes");
        }
        enc.push(t.elapsed());
        let t = Instant::now();
        for frame in &frames {
            let decoded = decode_chunk_interned(&mut &frame[..], &defs).expect("frame decodes");
            std::hint::black_box(decoded);
        }
        dec.push(t.elapsed());
        let t = Instant::now();
        for raw in &raws {
            std::hint::black_box(lz_compress(std::hint::black_box(raw)));
        }
        lzc.push(t.elapsed());
        let t = Instant::now();
        for (p, raw) in packed.iter().zip(&raws) {
            let out = lz_decompress(p, raw.len()).expect("own output decompresses");
            std::hint::black_box(out);
        }
        lzd.push(t.elapsed());
    }
    let per_step = |v: &mut Vec<Duration>| ms(median_duration(v)) / steps as f64;
    CodecCost {
        encode_ms: per_step(&mut enc),
        decode_ms: per_step(&mut dec),
        lz_compress_ms: per_step(&mut lzc),
        lz_decompress_ms: per_step(&mut lzd),
    }
}

/// MB/s a plain `TcpStream` pair moves over loopback, sending `payload`
/// repeatedly for about `budget`.
pub fn raw_loopback_mb_s(payload: &[u8], budget: Duration) -> f64 {
    if payload.is_empty() {
        return 0.0;
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("loopback address");
    std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept loopback");
            let mut buf = vec![0u8; 1 << 20];
            let mut total = 0u64;
            loop {
                match sock.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => total += n as u64,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => panic!("loopback read failed: {e}"),
                }
            }
            (total, Instant::now())
        });
        let mut sock = TcpStream::connect(addr).expect("connect loopback");
        sock.set_nodelay(true).expect("set nodelay");
        let start = Instant::now();
        while start.elapsed() < budget {
            sock.write_all(payload).expect("loopback write");
        }
        drop(sock);
        let (total, done) = reader.join().expect("loopback reader thread");
        total as f64 / 1e6 / (done - start).as_secs_f64()
    })
}

/// The simulation alone (no output), same ranks and substeps as the
/// workload: mean ms per coarse step over about `budget`, slowest rank.
pub fn sim_only_ms_per_step(w: &Workload, seed: u64, budget: Duration) -> f64 {
    let w = w.clone();
    let per_rank = sb_comm::launch_named("sim-only", w.sim_ranks, move |comm| {
        let mut sim = w.make_sim(seed, comm.rank(), comm.size());
        let start = Instant::now();
        let mut steps = 0u64;
        while comm.broadcast(
            0,
            (comm.rank() == 0).then(|| steps < 3 || start.elapsed() < budget),
        ) {
            for _ in 0..w.substeps {
                sim.substep(&comm);
            }
            steps += 1;
        }
        ms(start.elapsed()) / steps as f64
    })
    .expect("sim-only ranks run");
    per_rank.into_iter().fold(0.0, f64::max)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn median_duration(v: &mut [Duration]) -> Duration {
    v.sort();
    v[v.len() / 2]
}

/// Median of `v` (the lower middle value for even lengths); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile `p` in [0, 1] of `v`; NaN when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}
