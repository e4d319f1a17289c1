#include "schema/schema_format.h"

#include <algorithm>
#include <vector>

#include "util/string_util.h"

namespace ldapbound {

namespace {

// One logical line with its 1-based source line number (for error messages).
struct Line {
  size_t number;
  std::string_view text;
};

Status ParseError(size_t line, const std::string& msg) {
  return Status::InvalidArgument("schema line " + std::to_string(line) +
                                 ": " + msg);
}

// Strips a trailing comment and whitespace.
std::string_view CleanLine(std::string_view raw) {
  size_t hash = raw.find('#');
  if (hash != std::string_view::npos) raw = raw.substr(0, hash);
  return StripWhitespace(raw);
}

// Splits on whitespace into at most `max_parts` pieces (the last piece
// keeps the remainder).
std::vector<std::string_view> Words(std::string_view s) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

// Comma-separated names after a keyword.
std::vector<std::string_view> NameList(std::string_view s) {
  std::vector<std::string_view> out;
  for (std::string_view piece : Split(s, ',')) {
    std::string_view name = StripWhitespace(piece);
    if (!name.empty()) out.push_back(name);
  }
  return out;
}

Result<Axis> ParseAxis(std::string_view word) {
  if (word == "child" || word == "->") return Axis::kChild;
  if (word == "descendant" || word == "->>") return Axis::kDescendant;
  if (word == "parent" || word == "<-") return Axis::kParent;
  if (word == "ancestor" || word == "<<-") return Axis::kAncestor;
  return Status::InvalidArgument("unknown axis '" + std::string(word) + "'");
}

// Parser state machine over the logical lines.
class Parser {
 public:
  Parser(std::string_view text, std::shared_ptr<Vocabulary> vocab)
      : vocab_(*vocab), schema_(std::move(vocab)) {
    size_t number = 0;
    for (std::string_view raw : Split(text, '\n')) {
      ++number;
      std::string_view clean = CleanLine(raw);
      if (!clean.empty()) lines_.push_back(Line{number, clean});
    }
  }

  Result<DirectorySchema> Run() && {
    while (pos_ < lines_.size()) {
      LDAPBOUND_RETURN_IF_ERROR(TopLevel());
    }
    LDAPBOUND_RETURN_IF_ERROR(schema_.Validate());
    return std::move(schema_);
  }

 private:
  Vocabulary& vocab() { return vocab_; }

  Status TopLevel() {
    const Line& line = lines_[pos_];
    std::vector<std::string_view> words = Words(line.text);
    if (words[0] == "attribute") {
      ++pos_;
      bool single = words.size() == 4 && words[3] == "single";
      if (words.size() != 3 && !single) {
        return ParseError(line.number,
                          "expected: attribute <name> <type> [single]");
      }
      auto type = ValueTypeFromString(words[2]);
      if (!type.ok()) return ParseError(line.number, type.status().message());
      auto id = vocab().DefineAttribute(words[1], *type, single);
      if (!id.ok()) return ParseError(line.number, id.status().message());
      return Status::OK();
    }
    if (words[0] == "key") {
      ++pos_;
      if (words.size() != 2) {
        return ParseError(line.number, "expected: key <attribute>");
      }
      schema_.AddKeyAttribute(vocab().InternAttribute(words[1]));
      return Status::OK();
    }
    if (words[0] == "class") return CoreClassBlock(line, words);
    if (words[0] == "auxclass") return AuxClassBlock(line, words);
    if (words[0] == "structure") return StructureBlock(line, words);
    return ParseError(
        line.number,
        "expected attribute/key/class/auxclass/structure, got '" +
            std::string(words[0]) + "'");
  }

  // "class <name> : <parent> {" ... "}"
  Status CoreClassBlock(const Line& header,
                        const std::vector<std::string_view>& words) {
    // Accepted shapes: class N : P {   |  class N:P {
    std::string name, parent;
    if (words.size() == 5 && words[2] == ":" && words[4] == "{") {
      name = std::string(words[1]);
      parent = std::string(words[3]);
    } else if (words.size() == 3 && words[2] == "{") {
      auto pieces = Split(words[1], ':');
      if (pieces.size() != 2) {
        return ParseError(header.number,
                          "expected: class <name> : <parent> {");
      }
      name = std::string(StripWhitespace(pieces[0]));
      parent = std::string(StripWhitespace(pieces[1]));
    } else {
      return ParseError(header.number, "expected: class <name> : <parent> {");
    }
    ClassId cls = vocab().InternClass(name);
    auto parent_id = vocab().FindClass(parent);
    if (!parent_id.ok() || !schema_.classes().IsCore(*parent_id)) {
      return ParseError(header.number, "parent class '" + parent +
                                           "' is not a previously declared "
                                           "core class");
    }
    Status st = schema_.mutable_classes().AddCoreClass(cls, *parent_id);
    if (!st.ok()) return ParseError(header.number, st.message());
    ++pos_;
    return ClassBody(cls, /*core=*/true);
  }

  // "auxclass <name> {" ... "}"
  Status AuxClassBlock(const Line& header,
                       const std::vector<std::string_view>& words) {
    if (words.size() != 3 || words[2] != "{") {
      return ParseError(header.number, "expected: auxclass <name> {");
    }
    ClassId cls = vocab().InternClass(words[1]);
    Status st = schema_.mutable_classes().AddAuxiliaryClass(cls);
    if (!st.ok()) return ParseError(header.number, st.message());
    ++pos_;
    return ClassBody(cls, /*core=*/false);
  }

  Status ClassBody(ClassId cls, bool core) {
    schema_.mutable_attributes().AddClass(cls);
    while (true) {
      if (pos_ >= lines_.size()) {
        return ParseError(lines_.back().number, "unterminated class block");
      }
      const Line& line = lines_[pos_++];
      if (line.text == "}") return Status::OK();
      std::vector<std::string_view> words = Words(line.text);
      std::string_view rest =
          StripWhitespace(line.text.substr(words[0].size()));
      if (words[0] == "require" || words[0] == "allow") {
        for (std::string_view attr_name : NameList(rest)) {
          AttributeId attr = vocab().InternAttribute(attr_name);
          if (words[0] == "require") {
            schema_.mutable_attributes().AddRequired(cls, attr);
          } else {
            schema_.mutable_attributes().AddAllowed(cls, attr);
          }
        }
        continue;
      }
      if (words[0] == "aux") {
        if (!core) {
          return ParseError(line.number,
                            "'aux' is only valid in core class blocks");
        }
        aux_refs_.push_back({line.number, cls, {}});
        for (std::string_view aux_name : NameList(rest)) {
          aux_refs_.back().names.emplace_back(aux_name);
        }
        continue;
      }
      return ParseError(line.number, "expected require/allow/aux/}");
    }
  }

  Status StructureBlock(const Line& header,
                        const std::vector<std::string_view>& words) {
    if (words.size() != 2 || words[1] != "{") {
      return ParseError(header.number, "expected: structure {");
    }
    // Aux references may point at auxclass blocks declared after the core
    // class; resolve them before structure parsing (conventionally the
    // structure block is last).
    LDAPBOUND_RETURN_IF_ERROR(ResolveAuxRefs());
    ++pos_;
    while (true) {
      if (pos_ >= lines_.size()) {
        return ParseError(lines_.back().number,
                          "unterminated structure block");
      }
      const Line& line = lines_[pos_++];
      if (line.text == "}") return Status::OK();
      std::vector<std::string_view> w = Words(line.text);
      if (w[0] == "require-class") {
        if (w.size() != 2) {
          return ParseError(line.number, "expected: require-class <class>");
        }
        auto cls = vocab().FindClass(w[1]);
        if (!cls.ok()) return ParseError(line.number, cls.status().message());
        schema_.mutable_structure().RequireClass(*cls);
        continue;
      }
      if (w[0] == "require" || w[0] == "forbid") {
        if (w.size() != 4) {
          return ParseError(line.number,
                            "expected: " + std::string(w[0]) +
                                " <class> <axis> <class>");
        }
        auto source = vocab().FindClass(w[1]);
        if (!source.ok()) {
          return ParseError(line.number, source.status().message());
        }
        auto axis = ParseAxis(w[2]);
        if (!axis.ok()) return ParseError(line.number, axis.status().message());
        auto target = vocab().FindClass(w[3]);
        if (!target.ok()) {
          return ParseError(line.number, target.status().message());
        }
        if (w[0] == "require") {
          schema_.mutable_structure().Require(*source, *axis, *target);
        } else {
          Status st = schema_.mutable_structure().Forbid(*source, *axis,
                                                         *target);
          if (!st.ok()) return ParseError(line.number, st.message());
        }
        continue;
      }
      return ParseError(line.number, "expected require-class/require/forbid/}");
    }
  }

  Status ResolveAuxRefs() {
    for (const AuxRef& ref : aux_refs_) {
      for (const std::string& name : ref.names) {
        auto aux = vocab().FindClass(name);
        if (!aux.ok() || !schema_.classes().IsAuxiliary(*aux)) {
          return ParseError(ref.line, "'" + name +
                                          "' is not a declared auxiliary "
                                          "class");
        }
        Status st = schema_.mutable_classes().AllowAuxiliary(ref.core, *aux);
        if (!st.ok()) return ParseError(ref.line, st.message());
      }
    }
    aux_refs_.clear();
    return Status::OK();
  }

  struct AuxRef {
    size_t line;
    ClassId core;
    std::vector<std::string> names;
  };

  Vocabulary& vocab_;  ///< the schema's, which the parse defines names in
  DirectorySchema schema_;
  std::vector<Line> lines_;
  size_t pos_ = 0;
  std::vector<AuxRef> aux_refs_;
};

}  // namespace

Result<DirectorySchema> ParseDirectorySchema(
    std::string_view text, std::shared_ptr<Vocabulary> vocab) {
  return Parser(text, std::move(vocab)).Run();
}

std::string FormatDirectorySchema(const DirectorySchema& schema) {
  const Vocabulary& vocab = schema.vocab();
  const ClassSchema& classes = schema.classes();
  const AttributeSchema& attrs = schema.attributes();
  std::string out;

  for (AttributeId attr : attrs.Attributes()) {
    out += "attribute " + vocab.AttributeName(attr) + " " +
           std::string(ValueTypeToString(vocab.AttributeType(attr)));
    if (vocab.IsSingleValued(attr)) out += " single";
    out += "\n";
  }
  for (AttributeId attr : schema.key_attributes()) {
    out += "key " + vocab.AttributeName(attr) + "\n";
  }
  out += "\n";

  auto attr_lines = [&](ClassId cls) {
    const auto& required = attrs.Required(cls);
    if (!required.empty()) {
      std::vector<std::string> names;
      for (AttributeId a : required) names.push_back(vocab.AttributeName(a));
      out += "  require " + Join(names, ", ") + "\n";
    }
    std::vector<std::string> allowed_only;
    for (AttributeId a : attrs.Allowed(cls)) {
      if (!attrs.IsRequired(cls, a)) {
        allowed_only.push_back(vocab.AttributeName(a));
      }
    }
    if (!allowed_only.empty()) {
      out += "  allow " + Join(allowed_only, ", ") + "\n";
    }
  };

  // Emit core classes parent-before-child (preorder over the class tree).
  std::vector<ClassId> stack{classes.top_class()};
  while (!stack.empty()) {
    ClassId cls = stack.back();
    stack.pop_back();
    std::vector<ClassId> children = classes.ChildrenOf(cls);
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
    if (cls == classes.top_class()) continue;  // top is implicit
    out += "class " + vocab.ClassName(cls) + " : " +
           vocab.ClassName(classes.ParentOf(cls)) + " {\n";
    attr_lines(cls);
    const auto& aux = classes.AuxAllowed(cls);
    if (!aux.empty()) {
      std::vector<std::string> names;
      for (ClassId a : aux) names.push_back(vocab.ClassName(a));
      out += "  aux " + Join(names, ", ") + "\n";
    }
    out += "}\n";
  }

  for (ClassId cls : classes.AuxiliaryClasses()) {
    out += "auxclass " + vocab.ClassName(cls) + " {\n";
    attr_lines(cls);
    out += "}\n";
  }

  const StructureSchema& structure = schema.structure();
  out += "structure {\n";
  for (ClassId cls : structure.required_classes()) {
    out += "  require-class " + vocab.ClassName(cls) + "\n";
  }
  auto rel_line = [&](const StructuralRelationship& rel) {
    out += std::string("  ") + (rel.forbidden ? "forbid " : "require ") +
           vocab.ClassName(rel.source) + " " +
           std::string(AxisToWord(rel.axis)) + " " +
           vocab.ClassName(rel.target) + "\n";
  };
  for (const StructuralRelationship& rel : structure.required()) {
    rel_line(rel);
  }
  for (const StructuralRelationship& rel : structure.forbidden()) {
    rel_line(rel);
  }
  out += "}\n";
  return out;
}

}  // namespace ldapbound
