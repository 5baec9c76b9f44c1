//! Wire-format throughput: IPFIX-lite, MRT-lite, pcap, packet
//! crafting/parsing, and the link layer's CRC-32 and frame round trip.
//!
//! One contract is *asserted*: the sliced CRC-32 stays at least
//! [`CRC_FLOOR`]× faster than the byte-at-a-time table walk it
//! replaced, over a chunk-sized payload, both alone and inside a
//! frame encode + reassembly.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spoofwatch_bgp::{mrt, Announcement, AsPath, Update};
use spoofwatch_ixp::ipfix;
use spoofwatch_net::wire::{frame_encode, FrameReader, HEADER_LEN, TRAILER_LEN};
use spoofwatch_net::{crc32, Asn, FlowRecord, Ipv4Prefix, Proto};
use spoofwatch_packet::{craft, flow::extract_flow, PcapPacket, PcapReader, PcapWriter};
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

/// Payload of a 2 000-record chunk message: 72 KiB.
const CHUNK_PAYLOAD: usize = 72 * 1024;
/// Minimum sliced-over-byte-wise throughput ratio. Slicing-by-16
/// measures ≈5.3× on the development host (slicing-by-8 read 3.8×); a
/// table walk that crept back would read 1×.
const CRC_FLOOR: f64 = 4.0;

/// The byte-at-a-time CRC-32 the link layer used to run: one table
/// lookup per byte, each waiting on the previous one.
fn crc32_bytewise(table: &[u32; 256], data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

fn bytewise_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
        *slot = crc;
    }
    table
}

/// A frame round trip with the byte-wise CRC on both sides and the
/// copies the link used to make: encode into a fresh buffer, copy into
/// the reader's buffer, verify, copy the payload out.
fn frame_roundtrip_bytewise(table: &[u32; 256], payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    framed.extend_from_slice(b"SWLV\x00\x01");
    framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    framed.extend_from_slice(payload);
    framed.extend_from_slice(&crc32_bytewise(table, payload).to_be_bytes());
    let mut buf = Vec::new();
    buf.extend_from_slice(&framed);
    let body = &buf[HEADER_LEN..buf.len() - TRAILER_LEN];
    let want = &buf[buf.len() - TRAILER_LEN..];
    assert_eq!(crc32_bytewise(table, body).to_be_bytes(), want);
    let out = body.to_vec();
    buf.drain(..);
    out
}

/// Best-of-five nanoseconds per call of `f`, each sample a batch of
/// calls long enough to time.
fn best_ns(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..64 {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / 64.0);
    }
    best
}

/// The asserted floors, measured outside the criterion stub's budget
/// so a short `CRITERION_STUB_BUDGET_MS` cannot starve them.
fn assert_crc_floor(payload: &[u8]) {
    let table = bytewise_table();
    assert_eq!(crc32(payload), crc32_bytewise(&table, payload));

    let bytewise = best_ns(|| {
        black_box(crc32_bytewise(&table, black_box(payload)));
    });
    let sliced = best_ns(|| {
        black_box(crc32(black_box(payload)));
    });
    let magic = *b"SWLV";
    let mut reader = FrameReader::new(magic);
    let frame_old = best_ns(|| {
        black_box(frame_roundtrip_bytewise(&table, black_box(payload)));
    });
    let frame_new = best_ns(|| {
        reader.push_vec(frame_encode(&magic, black_box(payload)));
        black_box(reader.next_frame().expect("one frame"));
    });
    println!(
        "crc32 72 KiB: byte-wise {bytewise:.0} ns, sliced {sliced:.0} ns ({:.1}x); \
         frame round trip: byte-wise {frame_old:.0} ns, sliced {frame_new:.0} ns ({:.1}x)",
        bytewise / sliced,
        frame_old / frame_new
    );
    assert!(
        bytewise / sliced >= CRC_FLOOR,
        "crc32 is only {:.1}x the byte-wise table walk (floor {CRC_FLOOR}x)",
        bytewise / sliced
    );
    assert!(
        frame_old / frame_new >= CRC_FLOOR,
        "frame round trip is only {:.1}x the byte-wise path (floor {CRC_FLOOR}x)",
        frame_old / frame_new
    );
}

fn sample_flows(n: usize) -> Vec<FlowRecord> {
    let mut rng = StdRng::seed_from_u64(9);
    (0..n)
        .map(|_| FlowRecord {
            ts: rng.random(),
            src: rng.random(),
            dst: rng.random(),
            proto: Proto::from_number(rng.random_range(0..20)),
            sport: rng.random(),
            dport: rng.random(),
            packets: rng.random_range(1..100),
            bytes: rng.random_range(40..100_000),
            pkt_size: rng.random_range(40..1500),
            member: Asn(rng.random_range(1..60_000)),
            ttl: 0,
        })
        .collect()
}

fn sample_updates(n: usize) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(11);
    (0..n)
        .map(|_| {
            let prefix = Ipv4Prefix::new_truncating(rng.random(), rng.random_range(8..=24));
            if rng.random_bool(0.8) {
                let hops: Vec<u32> = (0..rng.random_range(1..6)).map(|_| rng.random_range(1..60_000)).collect();
                Update::Announce {
                    ts: rng.random(),
                    peer: Asn(rng.random_range(1..1000)),
                    announcement: Announcement::new(prefix, AsPath::from(hops)),
                }
            } else {
                Update::Withdraw {
                    ts: rng.random(),
                    peer: Asn(rng.random_range(1..1000)),
                    prefix,
                }
            }
        })
        .collect()
}

fn bench_codecs(c: &mut Criterion) {
    let flows = sample_flows(50_000);
    let encoded_flows = ipfix::encode(&flows);
    let updates = sample_updates(20_000);
    let encoded_updates = mrt::encode(&updates);

    let mut group = c.benchmark_group("codecs");
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("ipfix_encode_50k", |b| {
        b.iter(|| black_box(ipfix::encode(black_box(&flows))))
    });
    group.bench_function("ipfix_decode_50k", |b| {
        b.iter(|| black_box(ipfix::decode(black_box(&encoded_flows)).unwrap()))
    });

    group.throughput(Throughput::Elements(updates.len() as u64));
    group.bench_function("mrt_encode_20k", |b| {
        b.iter(|| black_box(mrt::encode(black_box(&updates))))
    });
    group.bench_function("mrt_decode_20k", |b| {
        b.iter(|| black_box(mrt::decode(black_box(&encoded_updates)).unwrap()))
    });

    // Packet pipeline: craft → pcap write → pcap read → flow extraction.
    let packets: Vec<Vec<u8>> = (0..5_000)
        .map(|i| {
            let i = i as u32;
            craft::udp(i, !i, (i % 60_000) as u16, 123, &[0u8; 40])
        })
        .collect();
    group.throughput(Throughput::Elements(packets.len() as u64));
    group.bench_function("craft_udp_5k", |b| {
        b.iter(|| {
            for i in 0..5_000u32 {
                black_box(craft::udp(i, !i, (i % 60_000) as u16, 123, &[0u8; 40]));
            }
        })
    });
    group.bench_function("extract_flow_5k", |b| {
        b.iter(|| {
            for p in &packets {
                black_box(extract_flow(black_box(p)).unwrap());
            }
        })
    });
    group.bench_function("pcap_roundtrip_5k", |b| {
        b.iter(|| {
            let mut w = PcapWriter::new(Vec::new()).unwrap();
            for (i, p) in packets.iter().enumerate() {
                w.write_packet(&PcapPacket::full(i as u32, 0, p.clone())).unwrap();
            }
            let bytes = w.finish().unwrap();
            let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
            black_box(r.collect_packets().unwrap().len())
        })
    });

    // Link layer: CRC-32 and a frame round trip over one chunk payload.
    let payload: Vec<u8> = {
        let mut rng = StdRng::seed_from_u64(13);
        (0..CHUNK_PAYLOAD).map(|_| rng.random()).collect()
    };
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("crc32_72k", |b| {
        b.iter(|| black_box(crc32(black_box(&payload))))
    });
    let magic = *b"SWLV";
    let mut reader = FrameReader::new(magic);
    group.bench_function("frame_roundtrip_72k", |b| {
        b.iter(|| {
            reader.push_vec(frame_encode(&magic, black_box(&payload)));
            black_box(reader.next_frame().expect("one frame"))
        })
    });
    group.finish();

    assert_crc_floor(&payload);
}

criterion_group!(benches, bench_codecs);
criterion_main!(benches);
