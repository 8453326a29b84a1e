//! What the root suites share: a frame reader for tests that talk to a
//! daemon over a raw socket.

use oriole::tuner::persist::decode_frame;
use std::io::{self, Read};

/// Reads one frame off `src` the way both ends of the wire do: bytes
/// are buffered in `unread` as they arrive and `decode_frame` takes the
/// frame in front; what arrived past it stays in `unread` for the next
/// call. A close before a whole frame is `UnexpectedEof`, a frame
/// `decode_frame` refuses is `InvalidData`.
pub(crate) fn read_frame(src: &mut impl Read, unread: &mut Vec<u8>) -> io::Result<(u64, String)> {
    loop {
        match decode_frame(unread) {
            Ok(Some((corr, payload, used))) => {
                unread.drain(..used);
                return Ok((corr, payload));
            }
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
        let mut chunk = [0u8; 4096];
        match src.read(&mut chunk)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => unread.extend_from_slice(&chunk[..n]),
        }
    }
}
