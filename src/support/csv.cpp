#include "support/csv.hpp"

namespace ara {

void append_csv_field(std::string& out, std::string_view field) {
  // One comparison per character: faster here than find_first_of.
  bool quote = false;
  for (const char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      quote = true;
      break;
    }
  }
  if (!quote) {
    out += field;
    return;
  }
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

std::vector<std::vector<std::string>> parse_csv(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    if (field_started || !field.empty() || !row.empty()) {
      end_field();
      rows.push_back(std::move(row));
      row.clear();
    }
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        field_started = true;  // the next field exists even if empty
        break;
      case '\r':
        break;  // handled by the following '\n'
      case '\n':
        end_row();
        break;
      default:
        field += c;
        field_started = true;
        break;
    }
  }
  end_row();
  return rows;
}

}  // namespace ara
