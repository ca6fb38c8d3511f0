// Mutation fuzz for the text parsers, in the style of the wire-frame
// fuzz in test_wire.cpp: every single-byte substitution (from a fixed
// alphabet of bytes the grammars care about) and every truncation of a
// real document must either parse or throw phls::error -- never crash,
// hang, or leak a foreign exception such as std::out_of_range.
#include <gtest/gtest.h>

#include <string>

#include "cdfg/benchmarks.h"
#include "cdfg/textio.h"
#include "library/library.h"
#include "support/errors.h"
#include "task/set.h"

namespace phls {
namespace {

/// Substitution alphabet: digits and signs that shift numbers, letters
/// and separators that break keywords and tokens, line structure,
/// comment markers, and two bytes outside printable ASCII.
constexpr char substitutions[] = {'0', '9', '-', '.', 'e', 'x', ' ',
                                  '\t', '\n', '#', ':', '\0', '\xff'};

/// Runs `parse` over every mutant of `good`; only phls::error may
/// escape.  Returns the number of rejected mutants.
template <typename Parse> int fuzz_parser(const std::string& good, Parse parse)
{
    parse(good); // the seed document itself must parse
    int rejected = 0;
    const auto attempt = [&](const std::string& text) {
        try {
            parse(text);
        } catch (const error&) {
            ++rejected;
        }
    };
    for (std::size_t i = 0; i < good.size(); ++i)
        for (const char b : substitutions) {
            if (good[i] == b) continue;
            std::string mutated = good;
            mutated[i] = b;
            attempt(mutated);
        }
    for (std::size_t n = 0; n < good.size(); ++n) attempt(good.substr(0, n));
    return rejected;
}

TEST(parser_fuzz, cdfg_text_of_every_builtin_benchmark)
{
    for (const std::string& name : benchmark_names()) {
        const std::string text = write_cdfg_string(benchmark_by_name(name));
        EXPECT_GT(fuzz_parser(text, [](const std::string& t) { (void)parse_cdfg_string(t); }),
                  0)
            << name << ": no mutant was rejected";
    }
}

TEST(parser_fuzz, task_set_text_of_the_ci_smoke_set)
{
    const std::string text = "taskset smoke\n"
                             "envelope 9.0\n"
                             "battery beta 0.1 cycle 0.5 idle 4\n"
                             "task rx hal deadline 60\n"
                             "task dsp hal deadline 200 release 10 iterations 2\n";
    EXPECT_GT(fuzz_parser(text,
                          [](const std::string& t) { (void)task::parse_task_set_string(t); }),
              0);
}

TEST(parser_fuzz, library_text_of_table1)
{
    const std::string text = write_library_string(table1_library());
    EXPECT_GT(fuzz_parser(text, [](const std::string& t) { (void)parse_library_string(t); }),
              0);
}

} // namespace
} // namespace phls
