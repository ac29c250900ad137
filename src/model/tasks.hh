/**
 * @file
 * Synthetic task analogues of MNLI / STS-B / SQuAD (Table I).
 *
 * The paper's datasets are not redistributable here, so each task is
 * replaced by a synthetic analogue whose *score-degradation*
 * semantics match (see DESIGN.md):
 *
 *  - Classification (MNLI, metric Acc-m): 3-way labels derived from
 *    the float model's own logits, with label noise injected so the
 *    float model scores in the published 84-92 % band rather than a
 *    vacuous 100 %.
 *  - Regression (STS-B, metric Spearman): scalar similarity targets
 *    equal to the float model's output plus noise.
 *  - Span extraction (SQuAD, metric F1): start/end token spans from
 *    the float model's position scores, noise-perturbed.
 *
 * A quantized model is scored by running the *same* harness with its
 * forward function; the score difference is the Table I "Err".
 */

#ifndef MOKEY_MODEL_TASKS_HH
#define MOKEY_MODEL_TASKS_HH

#include <functional>

#include "model/transformer.hh"

namespace mokey
{

/** Task families of Table I. */
enum class TaskKind
{
    Classification, ///< MNLI analogue, accuracy
    Regression,     ///< STS-B analogue, Spearman correlation
    Span,           ///< SQuAD analogue, token F1
};

/** Name of the paper task a kind stands in for. */
const char *taskName(TaskKind kind);

/** Metric name as printed in Table I. */
const char *taskMetric(TaskKind kind);

/** A model forward function: embedded input -> final hidden states. */
using ForwardFn = std::function<Tensor(const Tensor &)>;

/**
 * Deterministic synthetic task bound to one reference model.
 *
 * Construction freezes the task: inputs, read-out heads, and gold
 * labels (derived from the reference model's float forward pass plus
 * noise) are all fixed by the seed, so every evaluated model sees an
 * identical benchmark.
 */
class TaskEvaluator
{
  public:
    /**
     * @param model     reference float model
     * @param kind      task family
     * @param n_samples benchmark size
     * @param seq       tokens per input
     * @param seed      task-generation seed
     * @param label_noise fraction of corrupted gold labels
     */
    TaskEvaluator(const Transformer &model, TaskKind kind,
                  size_t n_samples = 200, size_t seq = 32,
                  uint64_t seed = 0xBEEF, double label_noise = 0.15);

    /** The evaluator keeps a reference to @p model: a temporary
     *  would dangle as soon as the constructor returned. */
    TaskEvaluator(const Transformer &&model, TaskKind kind,
                  size_t n_samples = 200, size_t seq = 32,
                  uint64_t seed = 0xBEEF,
                  double label_noise = 0.15) = delete;

    /** Score an arbitrary forward function on the frozen benchmark. */
    double evaluate(const ForwardFn &fn) const;

    /**
     * Fresh inputs drawn from the task's own input distribution
     * (signal injection included), disjoint from the benchmark —
     * what a profiling run should consume, mirroring the paper's
     * use of training-set samples for profiling and a
     * non-overlapping validation set for scoring.
     */
    std::vector<Tensor> profilingBatch(size_t n,
                                       uint64_t seed) const;

    /** Score the reference float model itself. */
    double evaluateReference() const;

    TaskKind kind() const { return taskKind; }
    size_t size() const { return inputs.size(); }

  private:
    const Transformer &model;
    TaskKind taskKind;
    size_t seqLen;
    std::vector<float> taskSignal;
    std::vector<Tensor> inputs;
    Tensor headCls;  ///< 3 x H classification read-out
    Tensor headReg;  ///< 1 x H regression read-out
    Tensor headSpan; ///< 2 x H span read-out (start, end rows)

    std::vector<int> goldLabels;
    std::vector<double> goldTargets;
    std::vector<std::pair<size_t, size_t>> goldSpans;

    /** Mean-pool rows of the final hidden states. */
    std::vector<float> pool(const Tensor &out) const;

    /** Decision confidence of the reference output (see .cc). */
    double predictionMargin(const Tensor &out) const;

    int predictLabel(const Tensor &out) const;
    double predictScore(const Tensor &out) const;
    std::pair<size_t, size_t> predictSpan(const Tensor &out) const;
};

/** Spearman rank correlation of two equally long sequences. */
double spearman(const std::vector<double> &a,
                const std::vector<double> &b);

/** Token-overlap F1 of two [start, end] spans (inclusive). */
double spanF1(std::pair<size_t, size_t> pred,
              std::pair<size_t, size_t> gold);

} // namespace mokey

#endif // MOKEY_MODEL_TASKS_HH
