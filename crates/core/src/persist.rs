//! Model checkpointing.
//!
//! The paper releases its pre-trained NetTAG so users can "easily generate
//! and fine-tune embeddings for their own netlist tasks" (footnote 1);
//! this module provides the same affordance: binary checkpoints of the
//! full model (weights + Adam moments + configuration), written with the
//! [`nettag_nn::codec`] byte codec the serving wire protocol also speaks.
//!
//! ## Layout (version 1, all little-endian)
//!
//! ```text
//! magic b"NTCK" | version: u32
//! config: embed_dim, text_dim, text_layers, text_heads, max_tokens,
//!         graph_dim, graph_layers, graph_heads, hops: u64 each
//!         | temperature: f32 | mask_rate: f64 | seed: u64
//! text_scale: f32
//! per parameter, in `Layer::params_mut` order for `NetTag`:
//!         rows: u64 | cols: u64 | value, m, v: rows·cols raw f32 each
//! checksum: u64 FNV-1a-64 of every byte before it
//! ```
//!
//! Floats are stored as raw bit patterns, so a load reproduces the saved
//! model bit for bit. A save refuses any non-finite value, so every file
//! it publishes loads; a load verifies the checksum before parsing
//! anything, so a flipped byte is a [`CheckpointError::Format`], never a
//! silently different model. The checksum detects corruption, not
//! tampering: a deliberately re-sealed file is trusted for its model
//! dimensions, each bounded only by the file's size.

use crate::config::NetTagConfig;
use crate::nettag::NetTag;
use nettag_nn::codec::{bad, fnv1a, Dec, Enc};
use nettag_nn::Layer;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// First four bytes of every checkpoint.
const MAGIC: [u8; 4] = *b"NTCK";

/// Checkpoint layout version written and accepted by this build.
const VERSION: u32 = 1;

/// Error saving or loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The file is not a loadable checkpoint (bad magic, version, shape,
    /// or checksum), or the model holds a value a checkpoint refuses.
    Format(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(e) => write!(f, "checkpoint format error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Encodes `model` in the layout of the module docs.
///
/// # Errors
///
/// [`CheckpointError::Format`] if any float in the model is non-finite.
fn encode(model: &NetTag) -> Result<Vec<u8>, CheckpointError> {
    let c = &model.config;
    let non_finite = |what: String| CheckpointError::Format(format!("non-finite value in {what}"));
    if !(c.temperature.is_finite() && c.mask_rate.is_finite() && model.text_scale.is_finite()) {
        return Err(non_finite("the configuration".into()));
    }
    let mut e = Enc::new();
    e.buf.extend_from_slice(&MAGIC);
    e.u32(VERSION);
    for n in [
        c.embed_dim,
        c.text_dim,
        c.text_layers,
        c.text_heads,
        c.max_tokens,
        c.graph_dim,
        c.graph_layers,
        c.graph_heads,
        c.hops,
    ] {
        e.u64(n as u64);
    }
    e.f32(c.temperature);
    e.f64(c.mask_rate);
    e.u64(c.seed);
    e.f32(model.text_scale);
    // `Layer` walks parameters through `&mut`; a clone lets a shared
    // model reuse that one canonical order.
    let mut model = model.clone();
    for (i, p) in model.params_mut().into_iter().enumerate() {
        e.u64(p.value.rows as u64);
        e.u64(p.value.cols as u64);
        for (name, t) in [("value", &p.value), ("m", &p.m), ("v", &p.v)] {
            for &x in &t.data {
                if !x.is_finite() {
                    return Err(non_finite(format!("parameter {i} ({name})")));
                }
                e.f32(x);
            }
        }
    }
    let sum = fnv1a(&e.buf);
    e.u64(sum);
    Ok(e.buf)
}

/// Reads a config count, bounded by the bytes that remain.
fn count(d: &mut Dec<'_>) -> io::Result<usize> {
    let n = d.u64()?;
    usize::try_from(n)
        .ok()
        .filter(|&n| n <= d.remaining())
        .ok_or_else(|| bad(format!("config count {n} exceeds the checkpoint size")))
}

/// Decodes a checkpoint written by [`encode`].
fn decode(bytes: &[u8]) -> io::Result<NetTag> {
    let split = bytes
        .len()
        .checked_sub(8)
        .ok_or_else(|| bad("file shorter than its checksum"))?;
    let (body, sum) = bytes.split_at(split);
    if fnv1a(body).to_le_bytes()[..] != *sum {
        return Err(bad("checksum mismatch"));
    }
    let mut d = Dec::new(body);
    if d.take(MAGIC.len())? != MAGIC {
        return Err(bad("bad magic: not a nettag checkpoint"));
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(bad(format!(
            "checkpoint version {version}, this build reads {VERSION}"
        )));
    }
    let config = NetTagConfig {
        embed_dim: count(&mut d)?,
        text_dim: count(&mut d)?,
        text_layers: count(&mut d)?,
        text_heads: count(&mut d)?,
        max_tokens: count(&mut d)?,
        graph_dim: count(&mut d)?,
        graph_layers: count(&mut d)?,
        graph_heads: count(&mut d)?,
        hops: count(&mut d)?,
        temperature: d.f32()?,
        mask_rate: d.f64()?,
        seed: d.u64()?,
    };
    // `NetTag::new` panics on widths its attention heads cannot split.
    for (dim, heads) in [
        (config.text_dim, config.text_heads),
        (config.graph_dim, config.graph_heads),
    ] {
        if heads == 0 || dim % heads != 0 {
            return Err(bad(format!(
                "width {dim} does not split into {heads} heads"
            )));
        }
    }
    let text_scale = d.f32()?;
    let mut model = NetTag::new(config);
    model.text_scale = text_scale;
    for (i, p) in model.params_mut().into_iter().enumerate() {
        let shape = (d.u64()?, d.u64()?);
        let want = (p.value.rows as u64, p.value.cols as u64);
        if shape != want {
            return Err(bad(format!(
                "parameter {i}: shape {shape:?}, the configured model has {want:?}"
            )));
        }
        for t in [&mut p.value, &mut p.m, &mut p.v] {
            for x in &mut t.data {
                *x = d.f32()?;
            }
        }
    }
    d.finish()?;
    Ok(model)
}

/// Saves a pre-trained model to a binary checkpoint, **atomically**.
///
/// The whole checkpoint is encoded in memory first, so a model it
/// refuses never touches the disk. The bytes are then written to a
/// temporary file in the *same directory* (rename across filesystems is
/// not atomic), fsynced, and renamed over `path`; on Unix the directory
/// is then fsynced too, so the rename itself survives a power loss. A
/// crash at any point leaves either the complete old checkpoint or the
/// complete new one on disk, never a torn file: a serving engine pointed
/// at `path` can always [`load_checkpoint`] whatever is there.
///
/// # Errors
///
/// [`CheckpointError::Format`] if any weight, Adam moment, or float
/// setting is NaN or infinite; [`CheckpointError::Io`] on filesystem
/// failure. A failure before the rename leaves the previous contents of
/// `path` untouched and removes the temporary file. A failure to sync
/// the directory comes after the rename: the new checkpoint is in place
/// and loads, but its rename may not survive a power loss.
pub fn save_checkpoint(model: &NetTag, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    use std::io::Write;
    let bytes = encode(model)?;
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    // Name the temp file after the target (plus pid for concurrent
    // savers) so it lands on the same filesystem and is identifiable.
    let tmp = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".tmp.{}", std::process::id()));
        dir.unwrap_or_else(|| Path::new(".")).join(name)
    };
    let result = (|| -> Result<(), CheckpointError> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        // Durability before visibility: the rename must not publish a
        // file whose bytes are still in the page cache only.
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // The rename is an entry in the directory, durable only once the
        // directory itself is synced.
        #[cfg(unix)]
        std::fs::File::open(dir.unwrap_or_else(|| Path::new(".")))?.sync_all()?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Loads a model from a binary checkpoint.
///
/// # Errors
///
/// [`CheckpointError::Io`] if the file cannot be read;
/// [`CheckpointError::Format`] on a bad checksum, magic, version, or
/// parameter shape, or a truncated or over-long file.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<NetTag, CheckpointError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes).map_err(|e| CheckpointError::Format(e.to_string()))
}

/// Loads a checkpoint into a shared immutable handle, deduplicated by
/// path: concurrent and repeated loads of the same file observe **one**
/// parse and share **one** weight buffer (`Arc::ptr_eq` holds), instead
/// of N serving threads each holding a private copy of the model.
///
/// The registry holds [`Weak`] references only — once every handle is
/// dropped the memory is freed, and a later load re-reads the file (so a
/// checkpoint overwritten on disk is picked up after its readers drain).
///
/// # Errors
///
/// Returns [`CheckpointError`] on filesystem or format failure.
pub fn load_checkpoint_shared(path: impl AsRef<Path>) -> Result<Arc<NetTag>, CheckpointError> {
    let registry = registry();
    // Canonicalize so `./model.ckpt` and an absolute spelling share.
    let path = path.as_ref();
    let key = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    // Fast path: a live handle exists. A panicking loader can't leave
    // the map torn (inserts are whole), so recover a poisoned guard
    // rather than wedging every later load.
    if let Some(model) = registry
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&key)
        .and_then(Weak::upgrade)
    {
        return Ok(model);
    }
    // Parse outside the lock (checkpoints are large); racing loaders
    // may parse twice, but the first to publish wins and the loser's copy
    // is dropped — every caller still ends up on one shared buffer.
    let model = Arc::new(load_checkpoint(path)?);
    let mut reg = registry.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(existing) = reg.get(&key).and_then(Weak::upgrade) {
        return Ok(existing);
    }
    reg.insert(key, Arc::downgrade(&model));
    Ok(model)
}

/// The process-wide path → weight-buffer registry behind
/// [`load_checkpoint_shared`] / [`reload_checkpoint_shared`].
fn registry() -> &'static Mutex<HashMap<PathBuf, Weak<NetTag>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Weak<NetTag>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Re-reads a checkpoint from disk **unconditionally** and republishes it
/// in the shared registry — the hot-swap path.
///
/// [`load_checkpoint_shared`] deduplicates by path, so while any reader
/// still holds the old handle it keeps returning the *old* weights even
/// after the file is overwritten. A serving engine swapping checkpoints
/// in place needs the opposite: parse the file as it is *now*, hand back
/// a fresh buffer, and make subsequent shared loads of the same path see
/// the new weights. Readers holding the old `Arc` are unaffected (their
/// buffer stays alive until they drop it), so a swap never invalidates
/// in-flight work.
///
/// # Errors
///
/// Returns [`CheckpointError`] on filesystem or format failure;
/// the registry keeps its previous entry in that case.
pub fn reload_checkpoint_shared(path: impl AsRef<Path>) -> Result<Arc<NetTag>, CheckpointError> {
    let path = path.as_ref();
    let key = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let model = Arc::new(load_checkpoint(path)?);
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, Arc::downgrade(&model));
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetTagConfig;
    use nettag_netlist::{CellKind, Library, Netlist, Tag};

    fn example_netlist() -> Netlist {
        let mut n = Netlist::new("ck");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let g = n.add_gate("G", CellKind::Nand2, vec![a, b]);
        n.add_gate("y", CellKind::Output, vec![g]);
        n.validate().expect("valid")
    }

    #[test]
    fn checkpoint_roundtrip_preserves_embeddings() {
        let model = NetTag::new(NetTagConfig::tiny());
        let dir = std::env::temp_dir().join("nettag_ckpt_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("model.ckpt");
        save_checkpoint(&model, &path).expect("save");
        let loaded = load_checkpoint(&path).expect("load");
        let lib = Library::default();
        let n = example_netlist();
        let tag = Tag::from_netlist(&n, &lib, &model.tag_options());
        let e1 = model.embed_tag(&tag);
        let e2 = loaded.embed_tag(&tag);
        assert_eq!(e1.cls.data, e2.cls.data);
        assert_eq!(e1.nodes.data, e2.nodes.data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_reports_io_error() {
        let err = load_checkpoint("/definitely/not/here.ckpt").expect_err("must fail");
        assert!(matches!(err, CheckpointError::Io(_)));
        assert!(!err.to_string().is_empty());
    }
}
