//! Typed layer IR with shape inference.
//!
//! Shapes are per-image (no batch dimension); batch effects are applied by
//! the analytics and the engine. Three shape families cover the zoo: CHW
//! feature maps (CNNs), token sequences (ViTs) and flat vectors (heads).

use std::fmt;

/// Per-image tensor shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Channel × height × width feature map.
    Chw {
        /// Channels.
        c: usize,
        /// Height.
        h: usize,
        /// Width.
        w: usize,
    },
    /// Token sequence: `s` tokens of dimension `d`.
    Seq {
        /// Sequence length (tokens, incl. CLS).
        s: usize,
        /// Embedding dimension.
        d: usize,
    },
    /// Flat vector of `d` features.
    Flat {
        /// Feature count.
        d: usize,
    },
}

impl Shape {
    /// Total elements per image.
    pub fn elements(&self) -> usize {
        match *self {
            Shape::Chw { c, h, w } => c * h * w,
            Shape::Seq { s, d } => s * d,
            Shape::Flat { d } => d,
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Shape::Chw { c, h, w } => write!(f, "[{c}x{h}x{w}]"),
            Shape::Seq { s, d } => write!(f, "[{s}x{d}]"),
            Shape::Flat { d } => write!(f, "[{d}]"),
        }
    }
}

/// Graph operations. Geometry parameters live in the op; weights are owned
/// by the execution engine (keyed by node id).
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Graph input of the given per-image shape.
    Input {
        /// Input shape.
        shape: Shape,
    },
    /// 2-D convolution.
    Conv2d {
        /// Input channels.
        cin: usize,
        /// Output channels.
        cout: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Whether a bias vector is present.
        bias: bool,
    },
    /// Inference batch normalization over channels.
    BatchNorm {
        /// Channels.
        channels: usize,
    },
    /// ReLU activation.
    Relu,
    /// GELU activation.
    Gelu,
    /// Max pooling.
    MaxPool {
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Global average pooling: CHW → Flat(c).
    GlobalAvgPool,
    /// Fully connected layer (applies per-token on sequences).
    Linear {
        /// Input features.
        cin: usize,
        /// Output features.
        cout: usize,
        /// Whether a bias vector is present.
        bias: bool,
    },
    /// Layer normalization over the embedding dimension.
    LayerNorm {
        /// Embedding dimension.
        dim: usize,
    },
    /// ViT patch embedding: CHW → Seq(n_patches + 1, dim), adds CLS token
    /// and learned positional embeddings.
    PatchEmbed {
        /// Input channels.
        in_ch: usize,
        /// Embedding dimension.
        dim: usize,
        /// Patch size.
        patch: usize,
    },
    /// Multi-head self-attention block (QKV + proj; softmax matmuls are
    /// attributed here too, but excluded from ptflops-style MAC counting).
    Attention {
        /// Embedding dimension.
        dim: usize,
        /// Number of heads.
        heads: usize,
    },
    /// RWKV-style linear attention: per-token state update instead of the
    /// quadratic score matrix — cost is linear in sequence length (§3.1's
    /// "state-based architectures such as RWKV").
    LinearAttention {
        /// Embedding dimension.
        dim: usize,
        /// Number of heads.
        heads: usize,
    },
    /// Transformer MLP: Linear(dim→hidden) + GELU + Linear(hidden→dim).
    Mlp {
        /// Embedding dimension.
        dim: usize,
        /// Hidden width.
        hidden: usize,
    },
    /// Elementwise residual add of exactly two same-shaped inputs.
    Add,
    /// Select the CLS token: Seq(s, d) → Flat(d).
    ClsSelect,
    /// Softmax over the final feature vector.
    Softmax,
}

/// Node handle within a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A node: op, inputs, inferred output shape, and a debug name.
#[derive(Clone, Debug)]
pub struct Node {
    /// This node's id (its index in the graph).
    pub id: NodeId,
    /// Human-readable name (`layer3.2.conv1`-style).
    pub name: String,
    /// The operation.
    pub op: Op,
    /// Input nodes (topologically earlier).
    pub inputs: Vec<NodeId>,
    /// Inferred per-image output shape.
    pub out_shape: Shape,
}

/// A shape-checked DAG in topological order (builders only append).
#[derive(Clone, Debug)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
    output: NodeId,
}

impl Graph {
    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }
    /// The designated output node.
    pub fn output(&self) -> NodeId {
        self.output
    }
    /// The input node (always the first).
    pub fn input(&self) -> NodeId {
        NodeId(0)
    }
    /// Per-image input shape.
    pub fn input_shape(&self) -> Shape {
        self.nodes[0].out_shape
    }
    /// Per-image output shape.
    pub fn output_shape(&self) -> Shape {
        self.node(self.output).out_shape
    }
}

/// Append-only graph builder with shape inference at every step.
pub struct GraphBuilder {
    name: String,
    nodes: Vec<Node>,
}

fn conv_out(in_dim: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (in_dim + 2 * pad).saturating_sub(kernel) / stride + 1
}

impl GraphBuilder {
    /// Start a graph with a single input of `shape`.
    pub fn new(name: impl Into<String>, shape: Shape) -> (Self, NodeId) {
        let input = Node {
            id: NodeId(0),
            name: "input".into(),
            op: Op::Input { shape },
            inputs: vec![],
            out_shape: shape,
        };
        (
            GraphBuilder {
                name: name.into(),
                nodes: vec![input],
            },
            NodeId(0),
        )
    }

    /// Append `op` fed by `inputs`; returns the new node's id.
    ///
    /// Panics on shape mismatches — model-construction bugs should fail at
    /// build time, not at execution time.
    pub fn push(&mut self, name: impl Into<String>, op: Op, inputs: &[NodeId]) -> NodeId {
        for &i in inputs {
            assert!(i.0 < self.nodes.len(), "input {i:?} not yet defined");
        }
        let out_shape = self.infer_shape(&op, inputs);
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            name: name.into(),
            op,
            inputs: inputs.to_vec(),
            out_shape,
        });
        id
    }

    fn shape_of(&self, id: NodeId) -> Shape {
        self.nodes[id.0].out_shape
    }

    fn infer_shape(&self, op: &Op, inputs: &[NodeId]) -> Shape {
        let unary = |n: usize| {
            assert_eq!(
                inputs.len(),
                n,
                "{op:?} wants {n} input(s), got {}",
                inputs.len()
            );
        };
        match op {
            Op::Input { .. } => panic!("Input may only be the first node"),
            Op::Conv2d {
                cin,
                cout,
                kernel,
                stride,
                pad,
                ..
            } => {
                unary(1);
                match self.shape_of(inputs[0]) {
                    Shape::Chw { c, h, w } => {
                        assert_eq!(c, *cin, "conv cin mismatch: {c} vs {cin}");
                        Shape::Chw {
                            c: *cout,
                            h: conv_out(h, *kernel, *stride, *pad),
                            w: conv_out(w, *kernel, *stride, *pad),
                        }
                    }
                    s => panic!("conv needs CHW input, got {s}"),
                }
            }
            Op::BatchNorm { channels } => {
                unary(1);
                match self.shape_of(inputs[0]) {
                    s @ Shape::Chw { c, .. } => {
                        assert_eq!(c, *channels, "batchnorm channel mismatch");
                        s
                    }
                    s => panic!("batchnorm needs CHW, got {s}"),
                }
            }
            Op::Relu | Op::Gelu | Op::Softmax => {
                unary(1);
                self.shape_of(inputs[0])
            }
            Op::MaxPool {
                kernel,
                stride,
                pad,
            } => {
                unary(1);
                match self.shape_of(inputs[0]) {
                    Shape::Chw { c, h, w } => Shape::Chw {
                        c,
                        h: conv_out(h, *kernel, *stride, *pad),
                        w: conv_out(w, *kernel, *stride, *pad),
                    },
                    s => panic!("maxpool needs CHW, got {s}"),
                }
            }
            Op::GlobalAvgPool => {
                unary(1);
                match self.shape_of(inputs[0]) {
                    Shape::Chw { c, .. } => Shape::Flat { d: c },
                    s => panic!("gap needs CHW, got {s}"),
                }
            }
            Op::Linear { cin, cout, .. } => {
                unary(1);
                match self.shape_of(inputs[0]) {
                    Shape::Flat { d } => {
                        assert_eq!(d, *cin, "linear cin mismatch");
                        Shape::Flat { d: *cout }
                    }
                    Shape::Seq { s, d } => {
                        assert_eq!(d, *cin, "linear cin mismatch on sequence");
                        Shape::Seq { s, d: *cout }
                    }
                    s => panic!("linear needs Flat or Seq, got {s}"),
                }
            }
            Op::LayerNorm { dim } => {
                unary(1);
                match self.shape_of(inputs[0]) {
                    s @ Shape::Seq { d, .. } => {
                        assert_eq!(d, *dim, "layernorm dim mismatch");
                        s
                    }
                    s @ Shape::Flat { d } => {
                        assert_eq!(d, *dim, "layernorm dim mismatch");
                        s
                    }
                    s => panic!("layernorm needs Seq/Flat, got {s}"),
                }
            }
            Op::PatchEmbed { in_ch, dim, patch } => {
                unary(1);
                match self.shape_of(inputs[0]) {
                    Shape::Chw { c, h, w } => {
                        assert_eq!(c, *in_ch, "patch-embed channel mismatch");
                        assert!(
                            h % patch == 0 && w % patch == 0,
                            "image {h}x{w} not divisible by patch {patch}"
                        );
                        let n_patches = (h / patch) * (w / patch);
                        Shape::Seq {
                            s: n_patches + 1,
                            d: *dim,
                        } // +1 CLS
                    }
                    s => panic!("patch-embed needs CHW, got {s}"),
                }
            }
            Op::Attention { dim, heads } | Op::LinearAttention { dim, heads } => {
                unary(1);
                assert!(*heads > 0 && dim % heads == 0, "dim {dim} / heads {heads}");
                match self.shape_of(inputs[0]) {
                    s @ Shape::Seq { d, .. } => {
                        assert_eq!(d, *dim, "attention dim mismatch");
                        s
                    }
                    s => panic!("attention needs Seq, got {s}"),
                }
            }
            Op::Mlp { dim, .. } => {
                unary(1);
                match self.shape_of(inputs[0]) {
                    s @ Shape::Seq { d, .. } => {
                        assert_eq!(d, *dim, "mlp dim mismatch");
                        s
                    }
                    s => panic!("mlp needs Seq, got {s}"),
                }
            }
            Op::Add => {
                unary(2);
                let a = self.shape_of(inputs[0]);
                let b = self.shape_of(inputs[1]);
                assert_eq!(a, b, "residual add shape mismatch: {a} vs {b}");
                a
            }
            Op::ClsSelect => {
                unary(1);
                match self.shape_of(inputs[0]) {
                    Shape::Seq { d, .. } => Shape::Flat { d },
                    s => panic!("cls-select needs Seq, got {s}"),
                }
            }
        }
    }

    /// Finish the graph with `output` as the designated output node.
    pub fn finish(self, output: NodeId) -> Graph {
        assert!(output.0 < self.nodes.len(), "output node undefined");
        Graph {
            name: self.name,
            nodes: self.nodes,
            output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cnn() -> Graph {
        let (mut b, input) = GraphBuilder::new("tiny", Shape::Chw { c: 3, h: 8, w: 8 });
        let conv = b.push(
            "conv",
            Op::Conv2d {
                cin: 3,
                cout: 4,
                kernel: 3,
                stride: 1,
                pad: 1,
                bias: true,
            },
            &[input],
        );
        let relu = b.push("relu", Op::Relu, &[conv]);
        let gap = b.push("gap", Op::GlobalAvgPool, &[relu]);
        let fc = b.push(
            "fc",
            Op::Linear {
                cin: 4,
                cout: 2,
                bias: true,
            },
            &[gap],
        );
        b.finish(fc)
    }

    #[test]
    fn shapes_propagate_through_cnn() {
        let g = tiny_cnn();
        assert_eq!(g.input_shape(), Shape::Chw { c: 3, h: 8, w: 8 });
        assert_eq!(g.node(NodeId(1)).out_shape, Shape::Chw { c: 4, h: 8, w: 8 });
        assert_eq!(g.node(NodeId(3)).out_shape, Shape::Flat { d: 4 });
        assert_eq!(g.output_shape(), Shape::Flat { d: 2 });
    }

    #[test]
    fn patch_embed_computes_sequence_length() {
        let (mut b, input) = GraphBuilder::new("v", Shape::Chw { c: 3, h: 32, w: 32 });
        let pe = b.push(
            "pe",
            Op::PatchEmbed {
                in_ch: 3,
                dim: 192,
                patch: 2,
            },
            &[input],
        );
        let g = b.finish(pe);
        assert_eq!(g.output_shape(), Shape::Seq { s: 257, d: 192 });
    }

    #[test]
    fn residual_add_requires_matching_shapes() {
        let (mut b, input) = GraphBuilder::new("r", Shape::Seq { s: 4, d: 8 });
        let ln = b.push("ln", Op::LayerNorm { dim: 8 }, &[input]);
        let add = b.push("add", Op::Add, &[input, ln]);
        let g = b.finish(add);
        assert_eq!(g.output_shape(), Shape::Seq { s: 4, d: 8 });
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_residual_panics() {
        let (mut b, input) = GraphBuilder::new("r", Shape::Seq { s: 4, d: 8 });
        let lin = b.push(
            "lin",
            Op::Linear {
                cin: 8,
                cout: 16,
                bias: false,
            },
            &[input],
        );
        b.push("add", Op::Add, &[input, lin]);
    }

    #[test]
    #[should_panic(expected = "cin mismatch")]
    fn wrong_conv_channels_panics() {
        let (mut b, input) = GraphBuilder::new("c", Shape::Chw { c: 3, h: 8, w: 8 });
        b.push(
            "conv",
            Op::Conv2d {
                cin: 4,
                cout: 8,
                kernel: 3,
                stride: 1,
                pad: 1,
                bias: false,
            },
            &[input],
        );
    }

    #[test]
    #[should_panic(expected = "not divisible by patch")]
    fn indivisible_patch_panics() {
        let (mut b, input) = GraphBuilder::new("v", Shape::Chw { c: 3, h: 30, w: 30 });
        b.push(
            "pe",
            Op::PatchEmbed {
                in_ch: 3,
                dim: 64,
                patch: 4,
            },
            &[input],
        );
    }

    #[test]
    fn stride_and_padding_shapes() {
        let (mut b, input) = GraphBuilder::new(
            "s",
            Shape::Chw {
                c: 3,
                h: 224,
                w: 224,
            },
        );
        let c1 = b.push(
            "conv7",
            Op::Conv2d {
                cin: 3,
                cout: 64,
                kernel: 7,
                stride: 2,
                pad: 3,
                bias: false,
            },
            &[input],
        );
        let mp = b.push(
            "pool",
            Op::MaxPool {
                kernel: 3,
                stride: 2,
                pad: 1,
            },
            &[c1],
        );
        let g = b.finish(mp);
        assert_eq!(
            g.node(c1).out_shape,
            Shape::Chw {
                c: 64,
                h: 112,
                w: 112
            }
        );
        assert_eq!(
            g.output_shape(),
            Shape::Chw {
                c: 64,
                h: 56,
                w: 56
            }
        );
    }

    #[test]
    fn shape_display_and_elements() {
        assert_eq!(Shape::Chw { c: 3, h: 4, w: 5 }.elements(), 60);
        assert_eq!(Shape::Seq { s: 7, d: 8 }.elements(), 56);
        assert_eq!(Shape::Flat { d: 9 }.elements(), 9);
        assert_eq!(format!("{}", Shape::Chw { c: 3, h: 4, w: 5 }), "[3x4x5]");
    }
}
