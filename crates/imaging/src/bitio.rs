//! Bit-level I/O and exp-Golomb coding for the AJPG entropy stage, and the
//! bounds-checked header reads AJPG and RTIF share.

/// Bounds-checked little-endian u32 read, for container headers. Returns
/// `Err` (never panics) when the stream is too short.
pub fn read_u32_le(bytes: &[u8], at: usize) -> Result<u32, String> {
    let b: [u8; 4] = at
        .checked_add(4)
        .and_then(|end| bytes.get(at..end))
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| format!("truncated header at byte {at}"))?;
    Ok(u32::from_le_bytes(b))
}

/// MSB-first bit writer. Bits collect in a 64-bit word (the low `nbits`
/// of `acc`, `nbits < 64`) and leave it eight bytes at a time.
#[derive(Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    acc: u64,
    nbits: u8,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(bit as u64, 1);
    }

    /// Append the low `n` bits of `value`, MSB first.
    #[inline]
    pub fn put_bits(&mut self, value: u64, n: u8) {
        assert!(n <= 64);
        if n == 0 {
            return;
        }
        let value = value & (u64::MAX >> (64 - n));
        let free = 64 - self.nbits;
        if n < free {
            self.acc = (self.acc << n) | value;
            self.nbits += n;
        } else {
            // The top `free` bits complete the word; `n - free` stay behind.
            self.nbits = n - free;
            let word = self.acc.checked_shl(free as u32).unwrap_or(0) | (value >> self.nbits);
            self.bytes.extend_from_slice(&word.to_be_bytes());
            self.acc = value & !(u64::MAX << self.nbits);
        }
    }

    /// Unsigned exp-Golomb code (order 0): `v+1` written as
    /// `leading_zeros(len-1) ++ binary(v+1)`.
    #[inline]
    pub fn put_ue(&mut self, v: u64) {
        let x = v + 1;
        let len = 64 - x.leading_zeros() as u8; // bit length of x ≥ 1
        if len <= 32 {
            self.put_bits(x, 2 * len - 1); // x's own high zeros are the prefix
        } else {
            self.put_bits(0, len - 1);
            self.put_bits(x, len);
        }
    }

    /// Signed exp-Golomb: zigzag map then [`BitWriter::put_ue`].
    #[inline]
    pub fn put_se(&mut self, v: i64) {
        let mapped = if v <= 0 {
            (-v as u64) * 2
        } else {
            (v as u64) * 2 - 1
        };
        self.put_ue(mapped);
    }

    /// Flush (zero-padding the final partial byte) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let word = self.acc << (64 - self.nbits);
            let tail = (self.nbits as usize).div_ceil(8);
            self.bytes.extend_from_slice(&word.to_be_bytes()[..tail]);
        }
        self.bytes
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.nbits as usize
    }
}

/// MSB-first bit reader over a byte slice. The next `have ≤ 63` unread bits
/// sit left-aligned in `acc`, topped up a load at a time from `bytes[next..]`,
/// so a code costs one bounds decision, not one per bit. A code `acc` cannot
/// hold (longer than 56 bits, or running off the stream) is re-read a bit at
/// a time on a copy of the reader — a copy, so that the reader's own fields
/// can stay in registers across a decode loop — and that path words the errors.
#[derive(Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    next: usize,
    acc: u64,
    have: u32,
}

/// The up-to-seven bytes of `rest` as the top of a big-endian word.
#[cold]
fn short_word(rest: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..rest.len()].copy_from_slice(rest);
    u64::from_be_bytes(word)
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            next: 0,
            acc: 0,
            have: 0,
        }
    }

    /// Top `acc` up to at least 56 bits, or to the end of the stream. Only
    /// whole bytes are counted in; what a load leaves below them is OR-ed in
    /// again, identically, by the next one.
    #[inline(always)]
    fn refill(&mut self) {
        let rest = &self.bytes[self.next..];
        let room = ((63 - self.have) / 8) as usize;
        let (word, taken) = match rest.first_chunk::<8>() {
            Some(word) => (u64::from_be_bytes(*word), room),
            None => (short_word(rest), room.min(rest.len())),
        };
        self.acc |= word >> self.have;
        self.next += taken;
        self.have += 8 * taken as u32;
    }

    #[inline(always)]
    fn consume(&mut self, n: u32) {
        self.acc <<= n;
        self.have -= n;
    }

    /// Read one bit; error at end of stream.
    #[inline]
    pub fn get_bit(&mut self) -> Result<bool, String> {
        if self.have == 0 {
            self.refill();
            if self.have == 0 {
                return Err("bitstream exhausted".into());
            }
        }
        let bit = self.acc >> 63 == 1;
        self.consume(1);
        Ok(bit)
    }

    /// Read `n` bits MSB-first.
    pub fn get_bits(&mut self, n: u8) -> Result<u64, String> {
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | self.get_bit()? as u64;
        }
        Ok(v)
    }

    /// Unsigned exp-Golomb decode.
    #[inline(always)]
    pub fn get_ue(&mut self) -> Result<u64, String> {
        self.refill();
        let len = 2 * self.acc.leading_zeros() + 1;
        if len <= self.have {
            let v = (self.acc >> (64 - len)) - 1;
            self.consume(len);
            return Ok(v);
        }
        let (v, reader) = self.clone().get_ue_bitwise()?;
        *self = reader;
        Ok(v)
    }

    #[cold]
    fn get_ue_bitwise(mut self) -> Result<(u64, Self), String> {
        let mut zeros = 0u8;
        while !self.get_bit()? {
            zeros += 1;
            if zeros > 63 {
                return Err("malformed exp-Golomb code".into());
            }
        }
        let rest = self.get_bits(zeros)?;
        Ok((((1u64 << zeros) | rest) - 1, self))
    }

    /// Signed exp-Golomb decode.
    #[inline(always)]
    pub fn get_se(&mut self) -> Result<i64, String> {
        let v = self.get_ue()?;
        Ok(if v % 2 == 0 {
            -((v / 2) as i64)
        } else {
            v.div_ceil(2) as i64
        })
    }

    /// Current bit position (for diagnostics).
    pub fn bit_pos(&self) -> usize {
        self.next * 8 - self.have as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_bits(0xABCD, 16);
        w.put_bit(true);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.get_bits(4).unwrap(), 0b1011);
        assert_eq!(r.get_bits(16).unwrap(), 0xABCD);
        assert!(r.get_bit().unwrap());
    }

    #[test]
    fn ue_round_trip_small_and_large() {
        let values = [0u64, 1, 2, 3, 4, 7, 8, 100, 1023, 1024, 1 << 20];
        let mut w = BitWriter::new();
        for &v in &values {
            w.put_ue(v);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &v in &values {
            assert_eq!(r.get_ue().unwrap(), v);
        }
    }

    #[test]
    fn se_round_trip() {
        let values = [0i64, 1, -1, 2, -2, 63, -64, 1000, -1000];
        let mut w = BitWriter::new();
        for &v in &values {
            w.put_se(v);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        for &v in &values {
            assert_eq!(r.get_se().unwrap(), v);
        }
    }

    #[test]
    fn ue_code_lengths_are_optimal_prefix() {
        // ue(0) = 1 bit, ue(1..2) = 3 bits, ue(3..6) = 5 bits.
        let mut w = BitWriter::new();
        w.put_ue(0);
        assert_eq!(w.bit_len(), 1);
        let mut w = BitWriter::new();
        w.put_ue(1);
        assert_eq!(w.bit_len(), 3);
        let mut w = BitWriter::new();
        w.put_ue(6);
        assert_eq!(w.bit_len(), 5);
    }

    #[test]
    fn exhausted_stream_errors() {
        let buf = [0xFFu8];
        let mut r = BitReader::new(&buf);
        assert!(r.get_bits(8).is_ok());
        assert!(r.get_bit().is_err());
    }

    #[test]
    fn partial_byte_is_zero_padded() {
        let mut w = BitWriter::new();
        w.put_bit(true);
        let buf = w.finish();
        assert_eq!(buf, vec![0b1000_0000]);
    }

    #[test]
    fn header_reads_are_bounds_checked() {
        let buf = [1u8, 0, 0, 0, 0xFF];
        assert_eq!(read_u32_le(&buf, 0).unwrap(), 1);
        assert_eq!(read_u32_le(&buf, 1).unwrap(), 0xFF00_0000);
        assert!(read_u32_le(&buf, 2).is_err());
        assert!(read_u32_le(&buf, usize::MAX - 1).is_err());
        assert!(read_u32_le(&[], 0).is_err());
    }
}
