#include "cdfg/textio.h"

#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "support/errors.h"
#include "support/strings.h"

namespace phls {

graph parse_cdfg(std::istream& is)
{
    std::string name = "unnamed";
    struct pending_node {
        std::string label;
        op_kind kind;
    };
    struct pending_edge {
        std::string from, to;
        int line;
    };
    std::vector<pending_node> nodes;
    std::vector<pending_edge> edges;

    std::string line;
    int lineno = 0;
    bool saw_header = false;
    while (std::getline(is, line)) {
        ++lineno;
        if (is_blank_or_comment(line)) continue;
        const std::vector<std::string> tok = split_ws(line);
        try {
            if (tok[0] == "cdfg") {
                check(tok.size() == 2, "expected: cdfg <name>");
                name = tok[1];
                saw_header = true;
            } else if (tok[0] == "node") {
                check(tok.size() == 3, "expected: node <label> <kind>");
                nodes.push_back({tok[1], parse_op_kind(tok[2])});
            } else if (tok[0] == "edge") {
                check(tok.size() == 3, "expected: edge <from> <to>");
                edges.push_back({tok[1], tok[2], lineno});
            } else {
                throw error("unknown directive '" + tok[0] + "'");
            }
        } catch (const parse_error&) {
            throw;
        } catch (const error& e) {
            throw parse_error(e.what(), lineno);
        }
    }
    check(saw_header, "missing 'cdfg <name>' header");

    graph g(name);
    std::map<std::string, node_id> by_label;
    for (const pending_node& n : nodes) by_label[n.label] = g.add_node(n.kind, n.label);
    for (const pending_edge& e : edges) {
        const auto from = by_label.find(e.from);
        const auto to = by_label.find(e.to);
        if (from == by_label.end())
            throw parse_error("edge references unknown node '" + e.from + "'", e.line);
        if (to == by_label.end())
            throw parse_error("edge references unknown node '" + e.to + "'", e.line);
        g.add_edge(from->second, to->second);
    }
    g.validate();
    return g;
}

graph parse_cdfg_string(const std::string& text)
{
    std::istringstream is(text);
    return parse_cdfg(is);
}

void write_cdfg(const graph& g, std::ostream& os)
{
    os << "cdfg " << g.name() << '\n';
    for (node_id v : g.nodes())
        os << "node " << g.label(v) << ' ' << op_kind_name(g.kind(v)) << '\n';
    // Edges go out per consumer in preds() order: parse_cdfg appends
    // each edge to its consumer's predecessor list, so operand order
    // survives the round trip.
    for (node_id v : g.nodes())
        for (node_id p : g.preds(v)) os << "edge " << g.label(p) << ' ' << g.label(v) << '\n';
}

std::string write_cdfg_string(const graph& g)
{
    std::ostringstream os;
    write_cdfg(g, os);
    return os.str();
}

} // namespace phls
