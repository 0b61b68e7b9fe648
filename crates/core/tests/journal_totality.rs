//! Totality of the journal decoder: on any file content, `read_journal`,
//! `absorbed_origins` and `JournalingTransport::resume` return a value
//! or a typed error, never panic, and allocate at most `PER_BYTE` bytes
//! per file byte plus a constant — a bound derived below from the
//! minimum record size.
//!
//! The inputs are arbitrary bytes, arbitrary frames behind a valid
//! header, and a valid journal holding all five record kinds (header,
//! command, response, loss, promotion) with every bit flipped in turn
//! and truncated at every byte. Allocation is measured by the counting
//! global allocator the wire decoders' harness uses too, which is why
//! this is a test binary of its own.

#[path = "../../net/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{flipped, hex, within_bound};
use ekm_core::journal::{
    absorbed_origins, read_journal, write_header, JournalEntry, JournalHeader,
};
use ekm_core::{CoreError, JournalingTransport};
use ekm_linalg::random::derive_seed;
use ekm_linalg::Matrix;
use ekm_net::frame::write_frame;
use ekm_net::messages::Message;
use ekm_net::protocol::{channel_pairs, Command, Payload, Response};
use ekm_net::wire::Precision;
use std::mem::size_of;

const SOURCES: u32 = 3;
const FP: u64 = 0x4A0B_7E57;
const HEADER: JournalHeader = JournalHeader {
    sources: SOURCES,
    fingerprint: FP,
};

/// The header record: a 9-byte frame header and an 18-byte body.
const HEADER_LEN: usize = 9 + 18;

/// The smallest record: a 9-byte frame header and a 4-byte source id.
const MIN_RECORD: usize = 9 + 4;

/// What decoding one record may allocate besides copies of its bytes:
/// the first allocation of its payload buffer, and its slot in the
/// doubling record list every decoder fills, whose reallocations add up
/// to at most four slots per element.
const PER_RECORD: usize = 32 + 4 * size_of::<JournalEntry>();

/// The bound per file byte: 6 copies of it (the file read into memory,
/// the payload buffer with its reallocations (4), and the record body),
/// plus [`PER_RECORD`] spread over a minimum-size record — 19 in all on
/// 64-bit targets. `absorbed_origins`' list of origins, at most four
/// 8-byte slots per 17-byte promotion record, fits in what the longer
/// record leaves over.
const PER_BYTE: usize = 6 + PER_RECORD.div_ceil(MIN_RECORD);

/// Allocation independent of the file size: error messages, and the
/// resumed transport's ledgers and 8 KiB journal write buffer.
const SLACK: usize = 16 * 1024;

/// What `read_journal` found in a file: its header and records.
type Decoded = Option<(JournalHeader, Vec<JournalEntry>)>;

/// Feeds `bytes`, as a journal file private to this test (`tag`), to
/// every decoder under the contract, and checks that every failure is a
/// typed journal error. Returns what `read_journal` found, and the bytes
/// `read_journal` and `resume` requested.
fn decode_all(tag: &str, bytes: &[u8]) -> (Decoded, usize, usize) {
    let path = std::env::temp_dir().join(format!(
        "ekm-journal-totality-{}-{tag}.journal",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let (read, read_bytes) = within_bound("read_journal", bytes, PER_BYTE, SLACK, || {
        read_journal(&path)
    });
    let (absorbed, _) = within_bound("absorbed_origins", bytes, PER_BYTE, SLACK, || {
        absorbed_origins(&path)
    });
    // `resume` consumes its transport (and truncates the file, so it
    // runs last); the channels are built outside the measured region.
    let (hub, _endpoints) = channel_pairs(SOURCES as usize);
    let (resumed, resume_bytes) = within_bound("resume", bytes, PER_BYTE, SLACK, || {
        JournalingTransport::resume(hub, &path, FP)
    });
    std::fs::remove_file(&path).unwrap();
    let errors = [
        read.as_ref().err(),
        absorbed.as_ref().err(),
        resumed.as_ref().err(),
    ];
    for e in errors.into_iter().flatten() {
        assert!(
            matches!(e, CoreError::Journal { .. }),
            "{e:?} on {}",
            hex(bytes)
        );
    }
    (read.ok(), read_bytes, resume_bytes)
}

/// A valid journal over [`SOURCES`] sources holding every record kind.
fn valid_journal() -> (Vec<u8>, Vec<JournalEntry>) {
    let basis = Message::Basis {
        basis: Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f64 * 0.125),
        precision: Precision::Full,
    };
    let cost = Message::CostReport { cost: 1.5 };
    let entries = vec![
        JournalEntry::Cmd {
            source: 1,
            bytes: Command::Deliver {
                payload: Payload::of(&basis),
            }
            .encode(),
        },
        JournalEntry::Resp {
            source: 1,
            bytes: Response::Up {
                round: 1,
                payload: Payload::of(&cost),
                ops: 7,
                seconds: 0.25,
            }
            .encode(),
        },
        JournalEntry::Lost {
            source: 1,
            via_send: false,
            reason: "source 1 missed the command deadline".to_string(),
        },
        JournalEntry::Promoted { origin: 1, host: 2 },
    ];
    let mut buf = Vec::new();
    write_header(&mut buf, &HEADER).unwrap();
    for e in &entries {
        e.write_to(&mut buf).unwrap();
    }
    (buf, entries)
}

#[test]
fn every_bit_flip_of_a_valid_journal_is_total() {
    let (bytes, entries) = valid_journal();
    assert_eq!(decode_all("flip", &bytes).0, Some((HEADER, entries)));
    for i in 0..bytes.len() * 8 {
        decode_all("flip", &flipped(&bytes, i));
    }
}

#[test]
fn every_truncation_of_a_valid_journal_is_total() {
    let (bytes, entries) = valid_journal();
    // Where each prefix of `entries` ends: the header, then every record.
    let mut ends = vec![HEADER_LEN];
    let mut records = Vec::new();
    for e in &entries {
        e.write_to(&mut records).unwrap();
        ends.push(HEADER_LEN + records.len());
    }
    assert_eq!(ends.last(), Some(&bytes.len()));
    for cut in 0..bytes.len() {
        // A cut on a record boundary is a shorter journal; anywhere
        // else the strict read refuses the torn tail (`decode_all`
        // checks that the refusal is a typed journal error).
        let want = ends
            .iter()
            .position(|&end| end == cut)
            .map(|kept| (HEADER, entries[..kept].to_vec()));
        assert_eq!(decode_all("cut", &bytes[..cut]).0, want, "cut at {cut}");
    }
}

#[test]
fn journals_of_minimum_records_stay_within_the_bound() {
    // Where the per-byte bound bites: thousands of the smallest records,
    // one past a power of two so every doubling vector just grew, all
    // naming one source.
    let (valid, _) = valid_journal();
    let records = [
        JournalEntry::Cmd {
            source: 0,
            bytes: Vec::new(),
        },
        JournalEntry::Resp {
            source: 0,
            bytes: Vec::new(),
        },
        JournalEntry::Lost {
            source: 0,
            via_send: false,
            reason: String::new(),
        },
        JournalEntry::Promoted { origin: 0, host: 1 },
    ];
    for record in records {
        let mut bytes = valid[..HEADER_LEN].to_vec();
        for _ in 0..4097 {
            record.write_to(&mut bytes).unwrap();
        }
        let (decoded, read, resumed) = decode_all("minimum", &bytes);
        assert_eq!(decoded.map(|(_, entries)| entries.len()), Some(4097));
        // `resume` keeps the records `read_journal` returns and nothing
        // more per record: its per-source state and its write buffer
        // fit in the slack.
        assert!(
            resumed <= read + SLACK,
            "{record:?}: resume requested {resumed} bytes, read_journal {read}"
        );
    }
}

/// `len` pseudo-random bytes from `seed`.
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| derive_seed(seed, i as u64) as u8)
        .collect()
}

#[test]
fn arbitrary_bytes_are_total() {
    let (valid, _) = valid_journal();
    let header = &valid[..HEADER_LEN];
    for case in 0..2_000u64 {
        let seed = derive_seed(0x7074_a117, case);
        let len = (seed % 200) as usize;
        let input = match case % 3 {
            // Bytes alone: a foreign header, refused.
            0 => {
                let bytes = random_bytes(seed, len);
                assert_eq!(decode_all("random", &bytes).0, None);
                continue;
            }
            // A valid header, then bytes.
            1 => [header, &random_bytes(seed, len)].concat(),
            // A valid header, then well-framed records of any kind,
            // length and content: short bodies, foreign kinds, bad
            // UTF-8, source ids outside the run.
            _ => {
                let mut buf = header.to_vec();
                for r in 0..len % 12 {
                    let word = derive_seed(seed, 1_000 + r as u64);
                    let body = random_bytes(word, (word >> 8) as usize % 14);
                    write_frame(&mut buf, 15 + (word % 7) as u8, &body, body.len() * 8).unwrap();
                }
                buf
            }
        };
        decode_all("random", &input);
    }
}
