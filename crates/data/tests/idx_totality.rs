//! Totality of the IDX readers, which read outside input (the MNIST
//! files `EKM_MNIST_DIR` points at): on any bytes, `read_idx_images`
//! and `read_idx_labels` return a value or a typed error, never panic or
//! abort, and allocate at most `PER_BYTE` bytes per input byte plus a
//! constant, whatever sizes the header claims.
//!
//! Allocation is measured by the counting global allocator of the wire
//! decoders' harness, which is why this is a test binary of its own.

#[path = "../../net/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{flipped, within_bound};
use ekm_data::idx::{read_idx_images, read_idx_labels, MAGIC_IMAGES, MAGIC_LABELS};
use ekm_data::DataError;

/// The bound per input byte: the `f64` intensities (8), and the payload
/// buffer, which grows by doubling with the bytes read — each
/// reallocation counts its new size, so the sizes add up to under twice
/// the final capacity, itself under twice the bytes read (4).
const PER_BYTE: usize = 12;

/// Allocation independent of the input: error messages and the
/// reader's first small buffer.
const SLACK: usize = 1024;

/// An IDX file: `magic`, then each of `dims` big-endian, then `payload`.
fn idx(magic: u32, dims: &[u32], payload: &[u8]) -> Vec<u8> {
    let mut v = magic.to_be_bytes().to_vec();
    for d in dims {
        v.extend_from_slice(&d.to_be_bytes());
    }
    v.extend_from_slice(payload);
    v
}

/// Reads `bytes` with both readers under the contract and returns what
/// the image and label readers returned.
fn read_both(
    bytes: &[u8],
) -> (
    Result<ekm_linalg::Matrix, DataError>,
    Result<Vec<u8>, DataError>,
) {
    let (images, _) = within_bound("read_idx_images", bytes, PER_BYTE, SLACK, || {
        read_idx_images(bytes)
    });
    let (labels, _) = within_bound("read_idx_labels", bytes, PER_BYTE, SLACK, || {
        read_idx_labels(bytes)
    });
    (images, labels)
}

fn is_format<T>(r: &Result<T, DataError>) -> bool {
    matches!(r, Err(DataError::Format { .. }))
}

#[test]
fn a_huge_image_claim_allocates_only_what_arrives() {
    // 65536³ bytes (256 TiB) claimed by a 16-byte header, then by a
    // header followed by 4 KiB of payload.
    for payload in [&[][..], &[7u8; 4096][..]] {
        let bytes = idx(MAGIC_IMAGES, &[65536, 65536, 65536], payload);
        let (images, _) = read_both(&bytes);
        assert!(is_format(&images), "{:?}", images.map(|m| m.shape()));
    }
}

#[test]
fn an_overflowing_image_claim_is_a_format_error() {
    // (2³² − 1)³ overflows a 64-bit usize; (2³² − 1)² alone does not.
    let max = u32::MAX;
    for dims in [[max, max, max], [2, max, max], [max, 65536, 65537]] {
        let bytes = idx(MAGIC_IMAGES, &dims, &[1, 2, 3]);
        let (images, _) = read_both(&bytes);
        let Err(DataError::Format { reason }) = images else {
            panic!("{dims:?}: {:?}", images.map(|m| m.shape()));
        };
        assert!(reason.contains("overflows"), "{dims:?}: {reason}");
    }
}

#[test]
fn an_image_of_no_pixels_is_a_format_error() {
    // 2³² − 1 rows of nothing would come back as a matrix whose row
    // count no byte of the input backs.
    for dims in [[u32::MAX, 0, 28], [u32::MAX, 28, 0], [0, 0, 0]] {
        let (images, _) = read_both(&idx(MAGIC_IMAGES, &dims, &[]));
        assert!(is_format(&images), "{dims:?}");
    }
}

#[test]
fn a_huge_label_claim_allocates_only_what_arrives() {
    // 2³² − 1 labels claimed by an 8-byte header, then by a header
    // followed by 4 KiB of labels.
    for payload in [&[][..], &[3u8; 4096][..]] {
        let bytes = idx(MAGIC_LABELS, &[u32::MAX], payload);
        let (_, labels) = read_both(&bytes);
        assert!(is_format(&labels), "{:?}", labels.map(|l| l.len()));
    }
}

#[test]
fn valid_tensors_decode_within_the_bound() {
    let pixels: Vec<u8> = (0..12).map(|i| i * 20).collect();
    let (images, _) = read_both(&idx(MAGIC_IMAGES, &[3, 2, 2], &pixels));
    assert_eq!(images.unwrap().shape(), (3, 4));
    let (_, labels) = read_both(&idx(MAGIC_LABELS, &[4], &[7, 0, 9, 3]));
    assert_eq!(labels.unwrap(), vec![7, 0, 9, 3]);
}

#[test]
fn every_truncation_and_bit_flip_is_total() {
    // Flipping a header bit claims sizes up to 2³¹·2³²·2³²; cutting the
    // file short truncates the header or the payload.
    let pixels: Vec<u8> = (0..24).map(|i| i * 10).collect();
    for valid in [
        idx(MAGIC_IMAGES, &[2, 3, 4], &pixels),
        idx(MAGIC_LABELS, &[24], &pixels),
    ] {
        for cut in 0..valid.len() {
            let (images, labels) = read_both(&valid[..cut]);
            assert!(images.is_err() && labels.is_err(), "cut at {cut}");
        }
        for bit in 0..valid.len() * 8 {
            let bytes = flipped(&valid, bit);
            if let (Ok(m), _) = read_both(&bytes) {
                assert!(m.rows() * m.cols() <= bytes.len(), "bit {bit}");
            }
        }
    }
}
