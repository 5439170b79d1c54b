//! # harvest-models
//!
//! Layer-level intermediate representation (IR) and the model zoo of the
//! paper's Table 3: ViT Tiny / Small / Base and ResNet50.
//!
//! The IR is a DAG of typed ops with full shape inference; on top of it sit
//! the analytics the characterization needs —
//!
//! * **parameter counts** (Table 3: 5.39 M / 21.40 M / 85.80 M / 25.56 M),
//! * **MACs per image**, counted *ptflops-style* (convolution and linear
//!   MACs; the attention `softmax(QKᵀ)V` matmuls are excluded, matching the
//!   tool the paper evidently used — with them included ViT-Base @224 would
//!   be ~17.5 G, not the printed 16.86 G),
//! * **per-layer-class breakdown** (the paper's MLP-vs-attention and
//!   conv-share observations in §4.0.2).
//!
//! A configuration note recovered while calibrating: the only ViT geometry
//! that reproduces the paper's "input 32×32, 1.37 / 5.47 GFLOPs" rows is
//! **patch size 2** (sequence length 16·16 + 1 = 257). Standard 224×224
//! patch-16 ViTs land on very different FLOPs. `vit_tiny`/`vit_small` are
//! therefore built at 32×32/p2 and `vit_base` at 224×224/p16, exactly as
//! Table 3 implies.

pub(crate) mod analytics;
pub(crate) mod ir;
pub mod zoo;

pub use analytics::{ModelStats, Precision};
pub use ir::{Graph, GraphBuilder, Node, NodeId, Op, Shape};
pub use zoo::{
    resnet50, rwkv_vision, vit, vit_base, vit_small, vit_tiny, ModelId, ModelSpec, VitConfig,
    ALL_MODELS,
};
