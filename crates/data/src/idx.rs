//! Reader for the MNIST IDX binary format.
//!
//! When the real MNIST files are available (`EKM_MNIST_DIR` pointing at a
//! directory containing `train-images-idx3-ubyte`), the experiment harness
//! loads them instead of the synthetic stand-in. The format is the classic
//! LeCun layout: big-endian magic `0x0000_0803` (unsigned byte tensor,
//! 3 dims), the dimension sizes, then raw `u8` payload.

use crate::{DataError, Result};
use ekm_linalg::Matrix;
use std::io::Read;
use std::path::Path;

/// Magic number for a 3-dimensional unsigned-byte tensor (images).
pub const MAGIC_IMAGES: u32 = 0x0000_0803;

/// Magic number for a 1-dimensional unsigned-byte tensor (labels).
pub const MAGIC_LABELS: u32 = 0x0000_0801;

/// Parses an IDX image tensor from a reader into an `n × (rows·cols)`
/// matrix with intensities scaled to `[0, 1]`.
///
/// The header's sizes are checked for overflow, and the payload buffer
/// grows only with the bytes that arrive, so a header claiming more than
/// the input holds costs no more memory than the input does. An image
/// has at least one pixel, so every row returned was read.
///
/// # Errors
///
/// * [`DataError::Io`] on read failures.
/// * [`DataError::Format`] on a bad magic number, an image of no pixels,
///   a size overflowing `usize`, or a truncated payload.
pub fn read_idx_images<R: Read>(mut reader: R) -> Result<Matrix> {
    let magic = read_u32(&mut reader)?;
    if magic != MAGIC_IMAGES {
        return Err(DataError::Format {
            reason: format!("bad image magic 0x{magic:08x}"),
        });
    }
    let n = read_u32(&mut reader)? as usize;
    let rows = read_u32(&mut reader)? as usize;
    let cols = read_u32(&mut reader)? as usize;
    let (d, len) = rows
        .checked_mul(cols)
        .and_then(|d| Some((d, n.checked_mul(d)?)))
        .ok_or_else(|| DataError::Format {
            reason: format!("image tensor {n}x{rows}x{cols} overflows usize"),
        })?;
    if d == 0 {
        return Err(DataError::Format {
            reason: format!("image tensor {n}x{rows}x{cols} has no pixels"),
        });
    }
    let buf = read_payload(reader, len, "image")?;
    let data: Vec<f64> = buf.iter().map(|&b| b as f64 / 255.0).collect();
    Ok(Matrix::from_vec(n, d, data))
}

/// Parses an IDX label tensor, growing its buffer only with the bytes
/// that arrive.
///
/// # Errors
///
/// See [`read_idx_images`].
pub fn read_idx_labels<R: Read>(mut reader: R) -> Result<Vec<u8>> {
    let magic = read_u32(&mut reader)?;
    if magic != MAGIC_LABELS {
        return Err(DataError::Format {
            reason: format!("bad label magic 0x{magic:08x}"),
        });
    }
    let n = read_u32(&mut reader)? as usize;
    read_payload(reader, n, "label")
}

/// Loads `train-images-idx3-ubyte` from `dir`.
///
/// # Errors
///
/// I/O and format errors as in [`read_idx_images`].
pub fn load_mnist_train_images<P: AsRef<Path>>(dir: P) -> Result<Matrix> {
    let path = dir.as_ref().join("train-images-idx3-ubyte");
    let file = std::fs::File::open(path)?;
    read_idx_images(std::io::BufReader::new(file))
}

/// Reads the `len`-byte payload of a `what` tensor into a buffer that
/// grows with the bytes read, never past what the reader holds.
fn read_payload<R: Read>(reader: R, len: usize, what: &str) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    reader.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() < len {
        return Err(DataError::Format {
            reason: format!("truncated {what} payload: {} of {len} bytes", buf.len()),
        });
    }
    Ok(buf)
}

fn read_u32<R: Read>(reader: &mut R) -> Result<u32> {
    let mut b = [0u8; 4];
    reader.read_exact(&mut b)?;
    Ok(u32::from_be_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_bytes(n: u32, rows: u32, cols: u32, payload: &[u8]) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(&MAGIC_IMAGES.to_be_bytes());
        v.extend_from_slice(&n.to_be_bytes());
        v.extend_from_slice(&rows.to_be_bytes());
        v.extend_from_slice(&cols.to_be_bytes());
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn parses_images() {
        let payload: Vec<u8> = (0..12).map(|i| (i * 20) as u8).collect();
        let bytes = image_bytes(3, 2, 2, &payload);
        let m = read_idx_images(&bytes[..]).unwrap();
        assert_eq!(m.shape(), (3, 4));
        assert!((m[(0, 1)] - 20.0 / 255.0).abs() < 1e-12);
        assert!(m.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = image_bytes(1, 1, 1, &[0]);
        bytes[3] = 0x99;
        assert!(matches!(
            read_idx_images(&bytes[..]),
            Err(DataError::Format { .. })
        ));
    }

    #[test]
    fn rejects_truncated_payload() {
        let bytes = image_bytes(2, 2, 2, &[0u8; 5]); // needs 8
        assert!(matches!(
            read_idx_images(&bytes[..]),
            Err(DataError::Format { .. })
        ));
    }

    #[test]
    fn parses_labels() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_LABELS.to_be_bytes());
        bytes.extend_from_slice(&4u32.to_be_bytes());
        bytes.extend_from_slice(&[7, 0, 9, 3]);
        assert_eq!(read_idx_labels(&bytes[..]).unwrap(), vec![7, 0, 9, 3]);
    }

    #[test]
    fn label_magic_checked() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_IMAGES.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.push(0);
        assert!(read_idx_labels(&bytes[..]).is_err());
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_mnist_train_images("/definitely/not/a/dir"),
            Err(DataError::Io(_))
        ));
    }

    #[test]
    fn load_from_disk_roundtrip() {
        let dir = std::env::temp_dir().join("ekm_idx_test");
        std::fs::create_dir_all(&dir).unwrap();
        let payload: Vec<u8> = (0..8).map(|i| i as u8).collect();
        std::fs::write(
            dir.join("train-images-idx3-ubyte"),
            image_bytes(2, 2, 2, &payload),
        )
        .unwrap();
        let m = load_mnist_train_images(&dir).unwrap();
        assert_eq!(m.shape(), (2, 4));
        std::fs::remove_dir_all(&dir).ok();
    }
}
