//! Byte streams in the state formats of older builds, made from a current
//! image, for the tests that check they are refused.

/// A version-2 `.ksnap` of a run without devices: the version-3 image
/// without its device count, at version 2.
pub fn version_2_ksnap(v3: &[u8]) -> Vec<u8> {
    assert_eq!(&v3[v3.len() - 4..], &0u32.to_le_bytes(), "no devices");
    let mut v2 = v3[..v3.len() - 4].to_vec();
    v2[4..8].copy_from_slice(&2u32.to_le_bytes());
    v2
}

/// A `KSES` session spool of a run without devices: the version-2
/// `.ksnap`, framed, and a zero device count.
pub fn kses_spool(v3: &[u8]) -> Vec<u8> {
    let v2 = version_2_ksnap(v3);
    let mut spool = b"KSES".to_vec();
    spool.extend_from_slice(&(v2.len() as u32).to_le_bytes());
    spool.extend_from_slice(&v2);
    spool.extend_from_slice(&0u32.to_le_bytes());
    spool
}
