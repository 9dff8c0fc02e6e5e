#include "services/variant_libs.h"

#include <cctype>
#include <cstdlib>
#include <functional>
#include <vector>

#include "common/strutil.h"

namespace rddr::services::lib {

namespace {

/// Escapes HTML metacharacters in text content.
std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Strips ASCII control characters (< 0x20) from a URL.
std::string strip_controls(std::string_view url) {
  std::string out;
  for (char c : url)
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  return out;
}

bool dangerous_scheme(std::string_view url) {
  std::string l = to_lower(trim(url));
  return starts_with(l, "javascript:") || starts_with(l, "vbscript:") ||
         starts_with(l, "data:");
}

/// Shared markdown transformer; `check_before_strip` selects the bug.
std::string md_render(std::string_view markdown, bool check_before_strip) {
  std::string out;
  auto lines = split_lines(markdown);
  for (const auto& line : lines) {
    std::string html;
    std::string_view rest = line;
    // Headers.
    int level = 0;
    while (!rest.empty() && rest.front() == '#' && level < 6) {
      ++level;
      rest.remove_prefix(1);
    }
    if (level > 0 && !rest.empty() && rest.front() == ' ')
      rest.remove_prefix(1);
    // Inline: links [text](url), emphasis **x**.
    std::string body;
    size_t i = 0;
    while (i < rest.size()) {
      if (rest[i] == '[') {
        size_t close = rest.find(']', i);
        size_t paren_open = close != std::string_view::npos &&
                                    close + 1 < rest.size() &&
                                    rest[close + 1] == '('
                                ? close + 1
                                : std::string_view::npos;
        size_t paren_close = paren_open != std::string_view::npos
                                 ? rest.find(')', paren_open)
                                 : std::string_view::npos;
        if (paren_close != std::string_view::npos) {
          std::string text(rest.substr(i + 1, close - i - 1));
          std::string url(rest.substr(paren_open + 1,
                                      paren_close - paren_open - 1));
          // BUG when check_before_strip (markdown2 / CVE-2020-11888
          // shape): the scheme check runs on the raw URL while the link
          // keeps the stripped one, re-fusing "java\x01script:" into
          // "javascript:".
          std::string final_url = strip_controls(url);
          if (dangerous_scheme(check_before_strip ? url : final_url))
            final_url = '#';
          body += "<a href=\"";
          body += html_escape(final_url);
          body += "\">";
          body += html_escape(text);
          body += "</a>";
          i = paren_close + 1;
          continue;
        }
      }
      if (rest.compare(i, 2, "**") == 0) {
        size_t close = rest.find("**", i + 2);
        if (close != std::string_view::npos) {
          body += "<strong>" + html_escape(rest.substr(i + 2, close - i - 2)) +
                  "</strong>";
          i = close + 2;
          continue;
        }
      }
      body += html_escape(rest.substr(i, 1));
      ++i;
    }
    if (level > 0) {
      html = strformat("<h%d>%s</h%d>", level, body.c_str(), level);
    } else if (!body.empty()) {
      html = "<p>" + body + "</p>";
    }
    if (!html.empty()) {
      out += html;
      out += "\n";
    }
  }
  return out;
}

/// Decodes decimal/hex character references (&#10; / &#x0a;).
std::string decode_char_refs(std::string_view s) {
  std::string out;
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] == '&' && i + 2 < s.size() && s[i + 1] == '#') {
      size_t semi = s.find(';', i + 2);
      if (semi != std::string_view::npos && semi - i <= 10) {
        std::string_view num = s.substr(i + 2, semi - i - 2);
        long code = -1;
        if (!num.empty() && (num[0] == 'x' || num[0] == 'X')) {
          code = std::strtol(std::string(num.substr(1)).c_str(), nullptr, 16);
        } else if (!num.empty()) {
          code = std::strtol(std::string(num).c_str(), nullptr, 10);
        }
        if (code >= 0 && code < 256) {
          out.push_back(static_cast<char>(code));
          i = semi + 1;
          continue;
        }
      }
    }
    out.push_back(s[i]);
    ++i;
  }
  return out;
}

/// Shared sanitizer skeleton: removes <script> elements and on* handlers,
/// then applies `href_is_safe` to anchor URLs.
std::string sanitize(std::string_view html,
                     const std::function<bool(std::string_view)>& href_is_safe) {
  std::string out;
  size_t i = 0;
  while (i < html.size()) {
    if (html[i] != '<') {
      out.push_back(html[i]);
      ++i;
      continue;
    }
    size_t close = html.find('>', i);
    if (close == std::string_view::npos) break;  // truncated tag: drop
    std::string tag(html.substr(i, close - i + 1));
    std::string ltag = to_lower(tag);
    // Drop <script>...</script> wholesale.
    if (starts_with(ltag, "<script")) {
      size_t end = ifind(html.substr(close), "</script>");
      i = end == std::string_view::npos ? html.size() : close + end + 9;
      continue;
    }
    // Remove inline event handlers (on*=...).
    size_t on;
    while ((on = ifind(tag, " on")) != std::string::npos &&
           tag.find('=', on) != std::string::npos) {
      size_t eq = tag.find('=', on);
      size_t end = eq + 1;
      if (end < tag.size() && (tag[end] == '"' || tag[end] == '\'')) {
        char q = tag[end];
        end = tag.find(q, end + 1);
        end = end == std::string::npos ? tag.size() - 1 : end + 1;
      } else {
        while (end < tag.size() && tag[end] != ' ' && tag[end] != '>') ++end;
      }
      tag.erase(on, end - on);
    }
    // href scheme check.
    size_t href = ifind(tag, "href=");
    if (href != std::string::npos) {
      size_t start = href + 5;
      char q = start < tag.size() ? tag[start] : 0;
      size_t vstart = (q == '"' || q == '\'') ? start + 1 : start;
      size_t vend = (q == '"' || q == '\'')
                        ? tag.find(q, vstart)
                        : tag.find_first_of(" >", vstart);
      if (vend == std::string::npos) vend = tag.size();
      std::string url = tag.substr(vstart, vend - vstart);
      if (!href_is_safe(url)) {
        tag.erase(href, vend - href + ((q == '"' || q == '\'') ? 1 : 0));
      }
    }
    out += tag;
    i = close + 1;
  }
  return out;
}

}  // namespace

std::string md_render_mdone(std::string_view markdown) {
  return md_render(markdown, /*check_before_strip=*/false);
}

std::string md_render_mdtwo(std::string_view markdown) {
  return md_render(markdown, /*check_before_strip=*/true);
}

std::string sanitize_lxmllite(std::string_view html) {
  // BUG (lxml / CVE-2014-3146 shape): the scheme check runs on the raw
  // attribute value — character references and embedded whitespace are not
  // normalised, so "java&#10;script:" and "java\nscript:" pass.
  return sanitize(html, [](std::string_view url) {
    return !dangerous_scheme(url);
  });
}

std::string sanitize_sanihtml(std::string_view html) {
  // Safe: decode char refs, drop ALL whitespace/control bytes, then check.
  return sanitize(html, [](std::string_view url) {
    std::string decoded = decode_char_refs(url);
    std::string squeezed;
    for (char c : decoded)
      if (!std::isspace(static_cast<unsigned char>(c)) &&
          static_cast<unsigned char>(c) >= 0x20)
        squeezed.push_back(c);
    return !dangerous_scheme(squeezed);
  });
}

const std::map<std::string, std::string>& xxe_filesystem() {
  static const std::map<std::string, std::string> fs = {
      {"/etc/passwd",
       "root:x:0:0:root:/root:/bin/bash\n"
       "svc:x:999:999:service:/srv:/usr/sbin/nologin\n"},
      {"/srv/keys/api.key", "api-key-51f2c9d477aa\n"},
  };
  return fs;
}

namespace {

struct SvgDoc {
  std::map<std::string, std::string> entities;  // name -> resolved value
  bool has_external_entity = false;
  std::vector<std::string> texts;
  std::string dims = "64x64";
};

/// Extremely small SVG reader: DOCTYPE entities + <text> elements +
/// width/height attributes. `resolve_external` controls the XXE behaviour.
SvgDoc parse_svg(std::string_view svg, bool resolve_external) {
  SvgDoc doc;
  // Entities: <!ENTITY name SYSTEM "uri"> or <!ENTITY name "value">.
  size_t pos = 0;
  while ((pos = svg.find("<!ENTITY", pos)) != std::string_view::npos) {
    size_t end = svg.find('>', pos);
    if (end == std::string_view::npos) break;
    std::string decl(svg.substr(pos + 8, end - pos - 8));
    pos = end + 1;
    auto toks = split(std::string(trim(decl)), ' ');
    if (toks.size() < 2) continue;
    std::string name = toks[0];
    if (toks.size() >= 3 && to_upper(toks[1]) == "SYSTEM") {
      doc.has_external_entity = true;
      std::string uri = toks[2];
      if (!uri.empty() && (uri.front() == '"' || uri.front() == '\''))
        uri = uri.substr(1, uri.size() - 2);
      if (resolve_external && starts_with(uri, "file://")) {
        std::string path = uri.substr(7);
        auto it = xxe_filesystem().find(path);
        doc.entities[name] =
            it != xxe_filesystem().end() ? it->second : "";
      } else {
        doc.entities[name] = "";
      }
    } else {
      std::string value = toks[1];
      for (size_t i = 2; i < toks.size(); ++i) value += " " + toks[i];
      if (!value.empty() && (value.front() == '"' || value.front() == '\''))
        value = value.substr(1, value.size() - 2);
      doc.entities[name] = value;
    }
  }
  // Dimensions.
  size_t w = ifind(svg, "width=\"");
  size_t h = ifind(svg, "height=\"");
  if (w != std::string_view::npos && h != std::string_view::npos) {
    size_t we = svg.find('"', w + 7);
    size_t he = svg.find('"', h + 8);
    if (we != std::string_view::npos && he != std::string_view::npos)
      doc.dims = std::string(svg.substr(w + 7, we - w - 7)) + "x" +
                 std::string(svg.substr(h + 8, he - h - 8));
  }
  // Text elements.
  size_t scan = 0;
  while (scan < svg.size()) {
    size_t open = ifind(svg.substr(scan), "<text");
    if (open == std::string_view::npos) break;
    size_t abs_open = scan + open;
    size_t open_end = svg.find('>', abs_open);
    if (open_end == std::string_view::npos) break;
    size_t close = ifind(svg.substr(open_end + 1), "</text>");
    if (close == std::string_view::npos) break;
    std::string content(svg.substr(open_end + 1, close));
    // Expand entity references &name;.
    for (const auto& [name, value] : doc.entities)
      content = replace_all(content, "&" + name + ";", value);
    doc.texts.push_back(content);
    scan = open_end + 1 + close + 7;
  }
  return doc;
}

/// Renders the parsed doc into the fake PNG byte format shared by both
/// converters (identical output on identical parse => no benign diff).
Bytes render_png(const SvgDoc& doc) {
  Bytes out = "\x89PNG-SIM\n";
  out += "dims=" + doc.dims + "\n";
  for (const auto& t : doc.texts) out += "text=" + t + "\n";
  return out;
}

}  // namespace

Result<Bytes> svg_to_png_svglite(std::string_view svg) {
  SvgDoc doc = parse_svg(svg, /*resolve_external=*/true);
  return render_png(doc);
}

Result<Bytes> svg_to_png_cairolite(std::string_view svg) {
  SvgDoc doc = parse_svg(svg, /*resolve_external=*/false);
  if (doc.has_external_entity)
    return Err("external entities are forbidden");
  return render_png(doc);
}

uint8_t rsa_keystream_byte(uint64_t key, size_t index) {
  uint64_t x = key * 0x9e3779b97f4a7c15ULL + index * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 29;
  return static_cast<uint8_t>(x & 0xff);
}

Bytes rsa_encrypt(ByteView message, uint64_t key, uint64_t padding_seed) {
  // Block: 00 02 <PS: >=8 nonzero bytes> 00 <message>.
  Bytes block;
  block.push_back('\x00');
  block.push_back('\x02');
  uint64_t s = padding_seed | 1;
  for (int i = 0; i < 8; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    uint8_t b = static_cast<uint8_t>((s >> 33) & 0xff);
    if (b == 0) b = 0xa5;
    block.push_back(static_cast<char>(b));
  }
  block.push_back('\x00');
  block.append(message);
  Bytes cipher;
  for (size_t i = 0; i < block.size(); ++i)
    cipher.push_back(static_cast<char>(
        static_cast<uint8_t>(block[i]) ^ rsa_keystream_byte(key, i)));
  return cipher;
}

namespace {
Bytes rsa_raw_decrypt(ByteView ciphertext, uint64_t key) {
  Bytes block;
  for (size_t i = 0; i < ciphertext.size(); ++i)
    block.push_back(static_cast<char>(
        static_cast<uint8_t>(ciphertext[i]) ^ rsa_keystream_byte(key, i)));
  return block;
}
}  // namespace

Result<Bytes> rsa_decrypt_cryptolite(ByteView ciphertext, uint64_t key) {
  Bytes block = rsa_raw_decrypt(ciphertext, key);
  if (block.size() < 11) return Err("decryption failed: block too short");
  if (block[0] != '\x00') return Err("decryption failed: bad leading byte");
  if (block[1] != '\x02') return Err("decryption failed: bad block type");
  size_t sep = block.find('\0', 2);
  if (sep == Bytes::npos) return Err("decryption failed: no separator");
  if (sep - 2 < 8) return Err("decryption failed: padding too short");
  return block.substr(sep + 1);
}

Result<Bytes> rsa_decrypt_rsalite(ByteView ciphertext, uint64_t key) {
  Bytes block = rsa_raw_decrypt(ciphertext, key);
  // BUG (CVE-2020-13757 shape): the leading byte is never checked and a
  // degenerate padding string is accepted, so attacker-crafted blocks that
  // a strict implementation rejects "decrypt" successfully.
  if (block.size() < 3) return Err("decryption failed: block too short");
  if (block[1] != '\x02') return Err("decryption failed: bad block type");
  size_t sep = block.find('\0', 2);
  if (sep == Bytes::npos) return Err("decryption failed: no separator");
  return block.substr(sep + 1);
}

}  // namespace rddr::services::lib
