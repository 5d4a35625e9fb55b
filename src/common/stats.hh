/**
 * @file
 * Lightweight statistics registry. Simulation components register named
 * counters and distributions with a StatGroup; experiment harnesses read them
 * back by name and format comparison tables.
 */

#ifndef FINEREG_COMMON_STATS_HH
#define FINEREG_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace finereg
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Streaming distribution: tracks count, sum, min, max for sampled values. */
class Distribution
{
  public:
    void sample(double v);
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A named collection of counters and distributions. Components own a
 * StatGroup and register stats once at construction; lookup by dotted name
 * is used by tests and benches.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    /** Register (or fetch existing) counter under @p name. */
    Counter &counter(const std::string &name);

    /** Register (or fetch existing) distribution under @p name. */
    Distribution &distribution(const std::string &name);

    /** Look up a counter; returns 0 value for unknown names. */
    std::uint64_t counterValue(const std::string &name) const;

    bool hasCounter(const std::string &name) const;

    /** Reset every stat in the group. */
    void resetAll();

    /** Names of all registered counters, sorted. */
    std::vector<std::string> counterNames() const;

    const std::string &name() const { return name_; }

    /** Render "name value" lines for every stat, for debug dumps. */
    std::string dump() const;

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Distribution> distributions_;
};

/**
 * Formatting helper for experiment harnesses: accumulates rows and renders
 * an aligned ASCII table, the output format every experiment report uses.
 */
class TableFormatter
{
  public:
    explicit TableFormatter(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Render the table with aligned columns. */
    std::string render() const;

    /** Format a double with fixed precision. */
    static std::string num(double v, int precision = 2);

    /** Format a percentage ("12.3%"). */
    static std::string pct(double fraction, int precision = 1);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Geometric mean of a vector of positive values (0 for empty input). */
double geomean(const std::vector<double> &values);

/** Arithmetic mean (0 for empty input). */
double mean(const std::vector<double> &values);

} // namespace finereg

#endif // FINEREG_COMMON_STATS_HH
