//! Training-loop orchestration with periodic SNIP scheme updates and
//! checkpointing.
//!
//! The paper's evaluation protocol (§6.1) resumes pretraining from saved
//! intermediate checkpoints under different quantization schemes. [`Trainer`]
//! packages model + optimizer + data stream + RNG into one serializable unit
//! so experiments can create checkpoints and branch from them exactly.
//!
//! [`Trainer::save`] writes that unit as a binary checkpoint
//! ([`crate::checkpoint`]): a CRC-checked manifest frame with everything
//! except the bulk buffers, then one CRC-checked frame of raw bytes per
//! parameter value, gradient and stored optimizer moment, staged and
//! renamed into place atomically. [`Trainer::load`] restores it bit-exactly
//! or returns a typed [`CheckpointError`]; there is no text format.

use crate::checkpoint::{self, CheckpointError};
use crate::engine::SnipEngine;
use crate::scheme::Scheme;
use serde::{Deserialize, Serialize};
use snip_data::BatchStream;
use snip_nn::model::{Model, StepOptions, StepOutput};
use snip_nn::ModelConfig;
use snip_optim::{clip::clip_global_norm, AdamW, AdamWConfig, LrSchedule};
use snip_tensor::rng::Rng;
use snip_tensor::BulkSlot;
use std::path::Path;

/// Full trainer configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Model hyperparameters.
    pub model: ModelConfig,
    /// Optimizer hyperparameters.
    pub adamw: AdamWConfig,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Sequences per batch.
    pub batch_size: usize,
    /// Tokens per sequence.
    pub seq_len: usize,
    /// Global gradient-norm clip (None = no clipping).
    pub grad_clip: Option<f64>,
    /// Seed for the data stream.
    pub data_seed: u64,
    /// Seed for parameter initialization.
    pub init_seed: u64,
    /// Synthetic-language parameters (vocab is overridden by the model's
    /// vocab size). Defaults match [`snip_data::LanguageConfig::default`].
    #[serde(default)]
    pub language: snip_data::LanguageConfig,
}

impl TrainerConfig {
    /// A small, fast configuration for tests and examples.
    pub fn tiny() -> Self {
        TrainerConfig {
            model: ModelConfig::tiny_test(),
            adamw: AdamWConfig {
                lr: 3e-3,
                ..Default::default()
            },
            schedule: LrSchedule::Constant { lr: 3e-3 },
            batch_size: 2,
            seq_len: 16,
            grad_clip: Some(1.0),
            data_seed: 0,
            init_seed: 0,
            language: snip_data::LanguageConfig::default(),
        }
    }

    /// The same configuration with a different optimizer moment-state
    /// precision (`MomentPrecision::PackedFp8` turns on bit-packed FP8
    /// AdamW moments; master weights stay f32 per paper §4.3.2).
    pub fn with_moment_precision(mut self, moments: snip_optim::MomentPrecision) -> Self {
        self.adamw.moments = moments;
        self
    }
}

/// A resumable trainer (model + optimizer + data + RNG + step counter).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trainer {
    cfg: TrainerConfig,
    /// The model being trained.
    pub model: Model,
    /// The optimizer.
    pub optimizer: AdamW,
    stream: BatchStream,
    rng: Rng,
    step: u64,
    /// Loss of the most recent training step (0.0 before the first step).
    /// Feeds the `"training"` section of the per-run telemetry report;
    /// `default` keeps checkpoints from before this field loadable.
    #[serde(default)]
    last_loss: f64,
}

impl Trainer {
    /// Builds a fresh trainer.
    ///
    /// # Errors
    ///
    /// Returns the model-config validation message on inconsistency.
    pub fn new(cfg: TrainerConfig) -> Result<Self, String> {
        let model = Model::new(cfg.model.clone(), cfg.init_seed)?;
        let optimizer = AdamW::new(cfg.adamw);
        let language = snip_data::SyntheticLanguage::new(
            snip_data::LanguageConfig {
                vocab: cfg.model.vocab_size,
                ..cfg.language.clone()
            },
            cfg.data_seed,
        );
        let stream = BatchStream::new(language, cfg.data_seed, cfg.batch_size, cfg.seq_len);
        Ok(Trainer {
            rng: Rng::seed_from(cfg.init_seed ^ 0x7841_1234),
            cfg,
            model,
            optimizer,
            stream,
            step: 0,
            last_loss: 0.0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Applies a quantization scheme to the model (SNIP Step 6).
    pub fn apply_scheme(&mut self, scheme: &Scheme) {
        scheme.apply(&mut self.model);
    }

    /// Runs one training step; returns the batch loss.
    pub fn train_step(&mut self) -> f64 {
        self.train_step_with_grad_hook(&mut |_| {})
    }

    /// [`Trainer::train_step`] with a gradient hook: after backward fills
    /// the parameter gradients and **before** clipping and the optimizer
    /// update, `hook` gets the model to transform its gradients in place.
    ///
    /// This is the data-parallel integration point — a hook that all-reduces
    /// every `Param::grad_mut` across ranks (e.g. over
    /// `snip_pipeline::transport`) turns `R` trainers on `R` threads into
    /// one synchronous data-parallel run, with clipping and the update
    /// applied to the *reduced* gradient exactly as a real DP trainer does.
    pub fn train_step_with_grad_hook(&mut self, hook: &mut dyn FnMut(&mut Model)) -> f64 {
        self.train_step_output_with_grad_hook(hook).loss
    }

    /// [`Trainer::train_step_with_grad_hook`] returning the full
    /// [`StepOutput`] — loss plus the per-step wall-time breakdown
    /// (`step_ns` / `quantize_ns` / `gemm_ns`, populated when `SNIP_TRACE`
    /// collection is on) that `comm_precision` tabulates. The whole step —
    /// forward/backward, gradient hook, clipping and the optimizer update —
    /// runs under a `"train_step"` telemetry span, and the step count and
    /// latest loss land in the registry (`trainer.steps` counter,
    /// `trainer.loss` gauge).
    pub fn train_step_output_with_grad_hook(
        &mut self,
        hook: &mut dyn FnMut(&mut Model),
    ) -> StepOutput {
        match self.step_core::<std::convert::Infallible>(&mut |model| {
            hook(model);
            Ok(())
        }) {
            Ok(out) => out,
            Err(e) => match e {},
        }
    }

    /// The fallible step body shared by the infallible and recoverable
    /// paths. A hook error aborts the step **before** clipping, the
    /// optimizer update, the step-count bump and the telemetry counters —
    /// but the batch stream, data-order RNG and gradients have already
    /// advanced, so recovery needs [`Trainer::try_train_step_with_grad_hook`]'s
    /// snapshot/restore on top.
    fn step_core<E>(
        &mut self,
        hook: &mut dyn FnMut(&mut Model) -> Result<(), E>,
    ) -> Result<StepOutput, E> {
        let _span = snip_obs::span("train_step");
        let lr = self.cfg.schedule.lr_at(self.step);
        self.optimizer.set_lr(lr);
        let batch = self.stream.next_batch();
        self.model.zero_grads();
        let out = self
            .model
            .step(&batch, &mut self.rng, &StepOptions::train());
        hook(&mut self.model)?;
        if let Some(max) = self.cfg.grad_clip {
            clip_global_norm(&mut self.model, max);
        }
        self.optimizer.update(&mut self.model);
        self.step += 1;
        self.last_loss = out.loss;
        if snip_obs::enabled() {
            snip_obs::counter_add("trainer.steps", 1);
            snip_obs::gauge_set("trainer.loss", out.loss);
        }
        Ok(out)
    }

    /// The recovery hook for distributed training: one training step whose
    /// gradient hook may fail (e.g. an all-reduce over a faulted
    /// transport). On `Ok` the step completed exactly as
    /// [`Trainer::train_step_with_grad_hook`] would have. On `Err` the
    /// trainer is restored **bit-for-bit** to its pre-step state — model,
    /// optimizer, batch stream and RNG rewind as if the step never started
    /// — so a launcher that restarts the world can retry the step from the
    /// last good parameters and reach the same final state an unfaulted run
    /// produces.
    ///
    /// The pre-step snapshot is a full trainer clone, so this costs one
    /// deep copy per step; the infallible paths skip it entirely.
    ///
    /// # Errors
    ///
    /// Whatever error the hook returned; the step's effects are rolled
    /// back.
    pub fn try_train_step_with_grad_hook<E>(
        &mut self,
        hook: &mut dyn FnMut(&mut Model) -> Result<(), E>,
    ) -> Result<f64, E> {
        let snapshot = self.clone();
        match self.step_core(hook) {
            Ok(out) => Ok(out.loss),
            Err(e) => {
                *self = snapshot;
                Err(e)
            }
        }
    }

    /// Runs `n` steps of [`Trainer::train_step_with_grad_hook`], returning
    /// each step's loss. This is the loop body both data-parallel backends
    /// (threaded and multi-process, `snip_pipeline::transport`) drive: one
    /// shared definition, so a rank's step sequence cannot drift between
    /// transports.
    pub fn train_with_grad_hook(&mut self, n: u64, hook: &mut dyn FnMut(&mut Model)) -> Vec<f64> {
        (0..n)
            .map(|_| self.train_step_with_grad_hook(hook))
            .collect()
    }

    /// Runs `n` steps, returning each step's loss.
    pub fn train(&mut self, n: u64) -> Vec<f64> {
        (0..n).map(|_| self.train_step()).collect()
    }

    /// Runs `n` steps with a periodic SNIP engine: statistics are collected
    /// and a new scheme solved every `engine.config().update_period` steps
    /// (asynchronously), and applied as soon as it is ready — the Fig. 6
    /// integration. Returns each step's loss.
    ///
    /// # Errors
    ///
    /// A failed scheme update (an unreachable `target_fp4`, a malformed
    /// instance) stops training at the step it arrives, before that step
    /// runs; the message names the step and the engine's error.
    pub fn train_with_engine(&mut self, n: u64, engine: &SnipEngine) -> Result<Vec<f64>, String> {
        let mut losses = Vec::with_capacity(n as usize);
        for _ in 0..n {
            if engine.is_update_due(self.step) {
                let batch = self.stream.next_batch();
                let name = format!("snip@step{}", self.step);
                engine.submit(
                    &mut self.model,
                    &self.optimizer,
                    &batch,
                    &mut self.rng,
                    name,
                );
            }
            match engine.try_collect() {
                Some(Ok(scheme)) => self.apply_scheme(&scheme),
                Some(Err(e)) => {
                    return Err(format!("SNIP update failed at step {}: {e}", self.step))
                }
                None => {}
            }
            losses.push(self.train_step());
        }
        Ok(losses)
    }

    /// Mean loss over `batches` held-out batches (fixed by `seed`).
    pub fn validation_loss(&mut self, seed: u64, batches: usize) -> f64 {
        let mut total = 0.0;
        for b in 0..batches {
            let batch = self.stream.validation_batch(seed.wrapping_add(b as u64));
            total += self.model.forward_loss(&batch, &mut self.rng);
        }
        total / batches.max(1) as f64
    }

    /// Draws the next training batch without consuming it for training
    /// (useful for measurement probes).
    pub fn peek_batch(&mut self) -> snip_nn::Batch {
        self.stream.next_batch()
    }

    /// Publishes this trainer's run summary as the `"training"` section of
    /// the telemetry report and writes the run artifacts (the Chrome trace
    /// and `RUN_REPORT.json` next to it) if `SNIP_TRACE` named a path.
    /// `world` is the number of data-parallel ranks the run used (1 for a
    /// single-trainer run). Returns the artifact paths, or `Ok(None)` when
    /// collection is off or no path was configured. Safe to call after
    /// `data_parallel_train` already flushed: the flush is idempotent and
    /// rewrites the artifacts from the full registry state.
    ///
    /// # Errors
    ///
    /// I/O failures writing the artifacts.
    pub fn write_run_report(&self, world: usize) -> std::io::Result<Option<snip_obs::Artifacts>> {
        if snip_obs::enabled() {
            use serde::Content;
            snip_obs::report::set_section(
                "training",
                Content::Map(vec![
                    ("steps".into(), Content::U64(self.step)),
                    ("world".into(), Content::U64(world as u64)),
                    ("final_loss".into(), Content::F64(self.last_loss)),
                ]),
            );
        }
        snip_obs::flush()
    }

    /// Saves the full trainer state to `path` as a binary checkpoint (see
    /// [`crate::checkpoint`] for the container): a manifest frame holding
    /// the serde JSON of everything but the bulk buffers, then one
    /// CRC-checked frame of raw little-endian bytes per bulk buffer: each
    /// parameter's value then gradient in [`Model::visit_params_mut`]
    /// order, then AdamW's stored moments ([`AdamW::visit_bulk_mut`]). FP8
    /// optimizer moments are stored as their packed codes and tile scales.
    ///
    /// The write is atomic: the container is staged at
    /// [`crate::checkpoint::temp_path`], fsynced, renamed over `path`, and
    /// the directory fsynced, so a crash or a failed save leaves the
    /// previous checkpoint at `path` intact.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if staging, syncing or renaming fails;
    /// `Layout` if a single buffer exceeds the 1 GiB frame bound.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        // A hollow copy: the bulk buffers move out as frame bodies, and
        // what remains (shapes included) serializes as the manifest.
        let mut hollow = self.clone();
        let mut bulk = Vec::new();
        hollow.visit_bulk_mut(&mut |slot| bulk.push(checkpoint::take_le_bytes(slot)));
        let manifest =
            serde_json::to_vec(&hollow).map_err(|e| CheckpointError::Manifest(e.to_string()))?;
        checkpoint::write(path.as_ref(), self.step, &manifest, &bulk)
    }

    /// Restores a trainer saved by [`Trainer::save`], bit-exactly: model,
    /// gradients, optimizer moments, data-stream position and RNG state.
    ///
    /// # Errors
    ///
    /// A typed [`CheckpointError`], never a panic: `Io` if the file cannot
    /// be read, `Format` for a file without the checkpoint magic (such as
    /// a JSON checkpoint from an older build) or of another version,
    /// `Truncated` / `Crc` naming the first short or damaged frame,
    /// `Layout` when the frames disagree with the manifest's shapes, and
    /// `Manifest` when the manifest does not describe a trainer.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        let mut reader = checkpoint::Reader::open(&bytes)?;
        let mut t: Trainer = serde_json::from_slice(reader.manifest)
            .map_err(|e| CheckpointError::Manifest(e.to_string()))?;
        if t.step != reader.step {
            return Err(CheckpointError::Manifest(format!(
                "manifest is at step {}, the header says {}",
                t.step, reader.step
            )));
        }
        let mut slots = 0usize;
        t.visit_bulk_mut(&mut |_| slots += 1);
        if slots + 1 != reader.frames as usize {
            return Err(CheckpointError::Layout(format!(
                "the header counts {} frames, the manifest implies {}",
                reader.frames,
                slots + 1
            )));
        }
        let mut filled = Ok(());
        t.visit_bulk_mut(&mut |slot| {
            if filled.is_ok() {
                filled = reader.fill(slot);
            }
        });
        filled?;
        Ok(t)
    }

    /// Lends every bulk buffer of the trainer to `f` in checkpoint order —
    /// the one definition [`Trainer::save`] and [`Trainer::load`] share:
    /// each parameter's value then gradient in
    /// [`Model::visit_params_mut`] order, then AdamW's stored moments
    /// ([`AdamW::visit_bulk_mut`]). Everything else in the trainer rides in
    /// the checkpoint's manifest.
    fn visit_bulk_mut(&mut self, f: &mut dyn FnMut(BulkSlot<'_>)) {
        self.model.visit_params_mut(&mut |p| {
            p.value_mut().visit_bulk_mut(f);
            p.grad_mut().visit_bulk_mut(f);
        });
        self.optimizer.visit_bulk_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SnipConfig;
    use crate::policy::PolicyConfig;

    #[test]
    fn training_reduces_loss() {
        let mut t = Trainer::new(TrainerConfig::tiny()).unwrap();
        let first = t.train(5).iter().sum::<f64>() / 5.0;
        let _ = t.train(60);
        let last = t.train(5).iter().sum::<f64>() / 5.0;
        assert!(last < first, "loss {first} -> {last}");
        assert_eq!(t.step_count(), 70);
    }

    #[test]
    fn grad_hook_sees_fresh_gradients_and_identity_hook_matches_train_step() {
        let mut plain = Trainer::new(TrainerConfig::tiny()).unwrap();
        let mut hooked = Trainer::new(TrainerConfig::tiny()).unwrap();
        let a = plain.train(3);
        let mut calls = 0usize;
        let b: Vec<f64> = (0..3)
            .map(|_| {
                hooked.train_step_with_grad_hook(&mut |model| {
                    calls += 1;
                    assert!(model.grad_norm() > 0.0, "hook must run after backward");
                })
            })
            .collect();
        assert_eq!(a, b, "an observing hook must not change the trajectory");
        assert_eq!(calls, 3);
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        use snip_optim::MomentPrecision;
        use snip_quant::{LinearPrecision, Precision};
        let dir = std::env::temp_dir().join(format!("snip_trainer_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trainer.ckpt");

        let n = TrainerConfig::tiny().model.n_linear_layers();
        let mixed = Scheme::new(
            "mixed",
            (0..n)
                .map(|i| match i % 3 {
                    0 => LinearPrecision::uniform(Precision::Fp4),
                    1 => LinearPrecision {
                        input: Precision::Fp8,
                        weight: Precision::Fp4,
                        grad: Precision::Bf16,
                    },
                    _ => LinearPrecision::uniform(Precision::Bf16),
                })
                .collect(),
        );
        // Each scheme is applied mid-run (after 5 of the 10 steps).
        let schemes = [
            ("bf16", None),
            ("fp4", Some(Scheme::uniform(Precision::Fp4, n))),
            ("mixed", Some(mixed)),
        ];
        for moments in [MomentPrecision::F32, MomentPrecision::PackedFp8] {
            for (name, scheme) in &schemes {
                let case = format!("{moments:?} × {name}");
                let cfg = TrainerConfig::tiny().with_moment_precision(moments);
                let mut t = Trainer::new(cfg).unwrap();
                let _ = t.train(5);
                if let Some(scheme) = scheme {
                    t.apply_scheme(scheme);
                }
                let _ = t.train(5);
                t.save(&path).unwrap();
                let mut restored = Trainer::load(&path).unwrap();
                assert_eq!(restored.step_count(), t.step_count());
                // The whole state — grads, the RNG's Gaussian spare, the
                // stream position, packed moment codes — comes back.
                assert!(
                    serde_json::to_vec(&restored).unwrap() == serde_json::to_vec(&t).unwrap(),
                    "{case}: reloaded state differs"
                );
                // Continuing from the checkpoint must match continuing the original.
                let a = t.train(3);
                let b = restored.train(3);
                assert_eq!(a, b, "checkpoint resume must be bit-exact");
                let bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "{case}: resumed losses differ in bits");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_step_rolls_back_to_bit_identical_state() {
        let mut t = Trainer::new(TrainerConfig::tiny()).unwrap();
        let _ = t.train(4);
        let before = serde_json::to_vec(&t).unwrap();
        let failed = t.try_train_step_with_grad_hook(&mut |_model| Err("link died"));
        assert_eq!(failed, Err("link died"));
        let after = serde_json::to_vec(&t).unwrap();
        assert_eq!(
            before, after,
            "a failed step must leave no trace — model, optimizer, stream and RNG rewind"
        );
        // And the retried step matches a trainer that never saw the fault.
        let mut calm = Trainer::new(TrainerConfig::tiny()).unwrap();
        let _ = calm.train(4);
        let retried = t
            .try_train_step_with_grad_hook::<&str>(&mut |_model| Ok(()))
            .unwrap();
        assert_eq!(retried, calm.train(1)[0]);
        assert_eq!(t.step_count(), 5);
    }

    #[test]
    fn scheme_application_persists_through_steps() {
        use snip_quant::Precision;
        let mut t = Trainer::new(TrainerConfig::tiny()).unwrap();
        let scheme = Scheme::uniform(Precision::Fp4, t.config().model.n_linear_layers());
        t.apply_scheme(&scheme);
        let _ = t.train(3);
        assert_eq!(t.model.scheme(), scheme.assignments());
    }

    #[test]
    fn engine_integration_applies_schemes_periodically() {
        let cfg = TrainerConfig::tiny();
        let mut t = Trainer::new(cfg.clone()).unwrap();
        let _ = t.train(5); // warm the optimizer
        let engine = SnipEngine::new(
            SnipConfig {
                policy: PolicyConfig {
                    target_fp4: 0.5,
                    ..Default::default()
                },
                update_period: 5,
                ..Default::default()
            },
            cfg.model.clone(),
        );
        let losses = t.train_with_engine(20, &engine).unwrap();
        assert_eq!(losses.len(), 20);
        assert!(losses.iter().all(|l| l.is_finite()));
        // After at least one update cycle the model should not be uniformly
        // BF16 anymore.
        use snip_quant::{LinearPrecision, Precision};
        let scheme = t.model.scheme();
        assert!(
            scheme
                .iter()
                .any(|&p| p != LinearPrecision::uniform(Precision::Bf16)),
            "engine never applied a scheme"
        );
    }

    #[test]
    fn engine_integration_fails_loudly_on_unreachable_target() {
        let cfg = TrainerConfig::tiny();
        let mut t = Trainer::new(cfg.clone()).unwrap();
        let _ = t.train(5);
        let engine = SnipEngine::new(
            SnipConfig {
                policy: PolicyConfig {
                    target_fp4: 1.5, // more than every linear FLOP in FP4
                    ..Default::default()
                },
                update_period: 5,
                ..Default::default()
            },
            cfg.model.clone(),
        );
        // The failure arrives whenever the worker finishes; every 5-step
        // call submits another update, so it surfaces within a few calls.
        let err = (0..100)
            .find_map(|_| t.train_with_engine(5, &engine).err())
            .expect("an unreachable target must fail the run");
        assert!(err.contains("unreachable"), "{err}");
        assert!(
            err.contains(&format!("at step {}", t.step_count())),
            "training must stop at the step the failure arrived: {err}"
        );
    }

    #[test]
    fn packed_fp8_moments_train_and_checkpoint_exactly() {
        use snip_optim::MomentPrecision;
        let cfg = TrainerConfig::tiny().with_moment_precision(MomentPrecision::PackedFp8);
        let mut t = Trainer::new(cfg).unwrap();
        let first = t.train(5).iter().sum::<f64>() / 5.0;
        let _ = t.train(40);
        let last = t.train(5).iter().sum::<f64>() / 5.0;
        assert!(last < first, "loss {first} -> {last}");

        // Packed moment state must be measurably smaller than the f32 run's.
        let mut dense = Trainer::new(TrainerConfig::tiny()).unwrap();
        let _ = dense.train(5);
        let ratio =
            dense.optimizer.moment_state_bytes() as f64 / t.optimizer.moment_state_bytes() as f64;
        assert!(ratio >= 3.0, "moment bytes only {ratio:.2}x smaller");

        // Checkpoint resume stays bit-exact with packed moments: the codes
        // and scales serialize verbatim.
        let dir =
            std::env::temp_dir().join(format!("snip_trainer_packed_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trainer.ckpt");
        t.save(&path).unwrap();
        let mut restored = Trainer::load(&path).unwrap();
        let a = t.train(3);
        let b = restored.train(3);
        assert_eq!(a, b, "packed-moment resume must be bit-exact");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn packed_moments_stay_within_divergence_tolerance_of_f32() {
        // The §4.3.2-style sanity check at the trainer level: swapping the
        // moment storage must not change training quality beyond the noise
        // the paper's divergence tolerance allows.
        use snip_optim::MomentPrecision;
        let mut dense = Trainer::new(TrainerConfig::tiny()).unwrap();
        let mut packed =
            Trainer::new(TrainerConfig::tiny().with_moment_precision(MomentPrecision::PackedFp8))
                .unwrap();
        let _ = dense.train(60);
        let _ = packed.train(60);
        let dense_val = dense.validation_loss(3, 4);
        let packed_val = packed.validation_loss(3, 4);
        assert!(
            (packed_val / dense_val - 1.0).abs() < 0.05,
            "packed-moment validation loss {packed_val} vs f32 {dense_val}"
        );
    }

    #[test]
    fn validation_loss_is_deterministic_given_seed() {
        let mut t = Trainer::new(TrainerConfig::tiny()).unwrap();
        let _ = t.train(5);
        let a = t.validation_loss(9, 2);
        let b = t.validation_loss(9, 2);
        assert_eq!(a, b);
    }
}
