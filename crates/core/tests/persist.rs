//! Checkpoint persistence: round-trip fidelity, corrupt-file error paths,
//! refused saves, and shared multi-reader loading (the serving engine's
//! contract).

use nettag_core::{
    load_checkpoint, load_checkpoint_shared, save_checkpoint, CheckpointError, NetTag, NetTagConfig,
};
use nettag_nn::codec::fnv1a;
use nettag_nn::Layer;
use std::io::Write;
use std::sync::Arc;

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("nettag_persist_it");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn roundtrip_preserves_every_weight_bitwise() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("roundtrip.json");
    save_checkpoint(&model, &path).expect("save");
    let loaded = load_checkpoint(&path).expect("load");
    // Weight-level equality, not just embedding-level: compare a few
    // representative tensors bit for bit.
    assert_eq!(
        model.exprllm.proj.w.value.data,
        loaded.exprllm.proj.w.value.data
    );
    assert_eq!(
        model.exprllm.embed.table.value.data,
        loaded.exprllm.embed.table.value.data
    );
    assert_eq!(
        model.tagformer.cls_seed.value.data,
        loaded.tagformer.cls_seed.value.data
    );
    assert_eq!(model.config.embed_dim, loaded.config.embed_dim);
    std::fs::remove_file(&path).ok();
}

#[test]
fn roundtrip_preserves_values_and_adam_moments_bitwise() {
    let mut model = NetTag::new(NetTagConfig::tiny());
    model.text_scale = 0.5;
    // Give the moments distinct, awkward bit patterns (subnormals, -0.0)
    // so a lossy float encoding could not pass.
    for (i, p) in model.params_mut().into_iter().enumerate() {
        for (j, (m, v)) in p.m.data.iter_mut().zip(&mut p.v.data).enumerate() {
            *m = if j % 3 == 0 {
                -0.0
            } else {
                (i + j) as f32 * 1e-3
            };
            *v = f32::from_bits(1 + (i * 31 + j) as u32);
        }
    }
    let path = tmp_path("roundtrip_moments.ckpt");
    save_checkpoint(&model, &path).expect("save");
    let mut loaded = load_checkpoint(&path).expect("load");
    assert_eq!(loaded.text_scale.to_bits(), model.text_scale.to_bits());
    assert_eq!(loaded.config.seed, model.config.seed);
    assert_eq!(
        loaded.config.temperature.to_bits(),
        model.config.temperature.to_bits()
    );
    let bits = |t: &nettag_nn::Tensor| t.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let saved = model.params_mut();
    let back = loaded.params_mut();
    assert_eq!(saved.len(), back.len());
    for (a, b) in saved.iter().zip(&back) {
        assert_eq!((a.value.rows, a.value.cols), (b.value.rows, b.value.cols));
        assert_eq!(bits(&a.value), bits(&b.value));
        assert_eq!(bits(&a.m), bits(&b.m));
        assert_eq!(bits(&a.v), bits(&b.v));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn nan_weight_save_is_refused_and_keeps_the_previous_checkpoint() {
    let mut model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("nan_guard.ckpt");
    save_checkpoint(&model, &path).expect("seed save");
    let before = std::fs::read(&path).expect("read seed");
    model.tagformer.cls_seed.value.data[0] = f32::NAN;
    let err = save_checkpoint(&model, &path).expect_err("a NaN weight must not be saved");
    assert!(matches!(err, CheckpointError::Format(_)), "got: {err}");
    assert_eq!(
        std::fs::read(&path).expect("read back"),
        before,
        "a refused save must leave the previous checkpoint byte-identical"
    );
    let loaded = load_checkpoint(&path).expect("previous checkpoint still loads");
    assert!(loaded.tagformer.cls_seed.value.data[0].is_finite());
    std::fs::remove_file(&path).ok();
}

/// Saves a fresh tiny model and returns its path and bytes.
fn saved_bytes(name: &str) -> (std::path::PathBuf, Vec<u8>) {
    let path = tmp_path(name);
    save_checkpoint(&NetTag::new(NetTagConfig::tiny()), &path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    (path, bytes)
}

#[test]
fn any_flipped_byte_is_a_format_error() {
    let (path, bytes) = saved_bytes("flipped.ckpt");
    // Magic, version, a config field, a tensor-body byte, the last
    // tensor byte, and the checksum itself.
    let n = bytes.len();
    for at in [0, 5, 20, n / 2, n - 9, n - 1] {
        let mut bad = bytes.clone();
        bad[at] ^= 0x10;
        std::fs::write(&path, &bad).expect("write corrupted copy");
        let err = load_checkpoint(&path).expect_err("a flipped byte must not load");
        assert!(
            matches!(err, CheckpointError::Format(_)),
            "byte {at}: got {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_version_is_a_format_error() {
    let (path, mut bytes) = saved_bytes("version.ckpt");
    // The version is the u32 after the 4-byte magic. Re-seal the file so
    // the version check itself, not the checksum, is what refuses it.
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    let body = bytes.len() - 8;
    let sum = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");
    let err = load_checkpoint(&path).expect_err("an unknown version must not load");
    assert!(matches!(err, CheckpointError::Format(_)), "got: {err}");
    assert!(err.to_string().contains("version"), "got: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_checkpoint_is_a_format_error() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("truncated.json");
    save_checkpoint(&model, &path).expect("save");
    let full = std::fs::read(&path).expect("read back");
    std::fs::write(&path, &full[..full.len() / 2]).expect("truncate");
    let err = load_checkpoint(&path).expect_err("truncated file must fail");
    assert!(matches!(err, CheckpointError::Format(_)), "got: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_json_is_a_format_error() {
    let path = tmp_path("corrupt.json");
    let mut f = std::fs::File::create(&path).expect("create");
    f.write_all(b"{\"config\": \"this is not a model\"}")
        .expect("write");
    drop(f);
    let err = load_checkpoint(&path).expect_err("corrupt file must fail");
    assert!(matches!(err, CheckpointError::Format(_)), "got: {err}");
    let shared_err = load_checkpoint_shared(&path).expect_err("shared load must also fail");
    assert!(matches!(shared_err, CheckpointError::Format(_)));
    std::fs::remove_file(&path).ok();
}

#[test]
fn save_replaces_atomically_and_leaves_no_temp_files() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("atomic.json");
    // Seed the path with a valid checkpoint, then overwrite it in place:
    // at no point may the path hold a torn file, and the temp file the
    // save staged through must be gone afterwards.
    save_checkpoint(&model, &path).expect("seed save");
    save_checkpoint(&model, &path).expect("overwrite save");
    let loaded = load_checkpoint(&path).expect("overwritten checkpoint parses");
    assert_eq!(
        model.exprllm.proj.w.value.data,
        loaded.exprllm.proj.w.value.data
    );
    let dir = path.parent().expect("tmp dir");
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .expect("scan dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("atomic.json.tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "staging files left behind: {leftovers:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn failed_save_keeps_the_previous_checkpoint_intact() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("torn_write_guard.json");
    save_checkpoint(&model, &path).expect("seed save");
    let before = std::fs::read(&path).expect("read seed");
    // Simulate the crash-adjacent failure mode: the staging temp file
    // cannot be created (its name is occupied by a directory), so the
    // save fails *before* the rename. The published checkpoint must be
    // byte-identical to what was there — a reader never observes a torn
    // or half-written file.
    let tmp_name = format!("torn_write_guard.json.tmp.{}", std::process::id());
    let blocker = path.parent().expect("dir").join(&tmp_name);
    std::fs::create_dir_all(&blocker).expect("occupy temp path");
    let err = save_checkpoint(&model, &path).expect_err("save must fail");
    assert!(matches!(err, CheckpointError::Io(_)), "got: {err}");
    let after = std::fs::read(&path).expect("read back");
    assert_eq!(
        before, after,
        "a failed save must leave the previous checkpoint byte-identical"
    );
    load_checkpoint(&path).expect("previous checkpoint still parses");
    std::fs::remove_dir(&blocker).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_an_io_error() {
    let err = load_checkpoint_shared(tmp_path("never_written.json")).expect_err("must fail");
    assert!(matches!(err, CheckpointError::Io(_)));
}

#[test]
fn shared_loads_alias_one_buffer() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("shared.json");
    save_checkpoint(&model, &path).expect("save");
    let a = load_checkpoint_shared(&path).expect("load a");
    let b = load_checkpoint_shared(&path).expect("load b");
    assert!(
        Arc::ptr_eq(&a, &b),
        "repeated loads of one path must share one model buffer"
    );
    assert_eq!(a.exprllm.proj.w.value.data, model.exprllm.proj.w.value.data);
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_shared_loads_converge_to_one_buffer() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("concurrent.json");
    save_checkpoint(&model, &path).expect("save");
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let p = path.clone();
            std::thread::spawn(move || load_checkpoint_shared(p).expect("load"))
        })
        .collect();
    let loaded: Vec<Arc<NetTag>> = handles
        .into_iter()
        .map(|h| h.join().expect("no panics"))
        .collect();
    for m in &loaded[1..] {
        assert!(
            Arc::ptr_eq(&loaded[0], m),
            "all concurrent readers must share one model buffer"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn dropped_handles_release_and_later_loads_reread() {
    let model = NetTag::new(NetTagConfig::tiny());
    let path = tmp_path("rearm.json");
    save_checkpoint(&model, &path).expect("save");
    let first = load_checkpoint_shared(&path).expect("load");
    let first_ptr = Arc::as_ptr(&first);
    drop(first);
    // All handles gone: the registry holds only a dead Weak, so this load
    // re-reads the file (possibly at a new address — what matters is that
    // it succeeds and is again shared going forward).
    let second = load_checkpoint_shared(&path).expect("reload");
    let third = load_checkpoint_shared(&path).expect("load again");
    assert!(Arc::ptr_eq(&second, &third));
    let _ = first_ptr;
    std::fs::remove_file(&path).ok();
}
